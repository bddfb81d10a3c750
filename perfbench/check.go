package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"

	"contango/internal/core"
)

// digest is the SHA-256 of res's result envelope with Elapsed zeroed, cut
// to 16 hex digits: two runs that built the same tree with the same
// metrics have the same digest.
func digest(res *core.Result) (string, error) {
	cp := *res
	cp.Elapsed = 0
	h := sha256.New()
	if err := core.EncodeResult(h, &cp); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)[:8]), nil
}

// finite reports the first non-finite float64 field of v (walked through
// structs, slices and pointers), or "" when every one is finite.
func finite(v interface{}) string {
	var walk func(path string, rv reflect.Value) string
	walk = func(path string, rv reflect.Value) string {
		switch rv.Kind() {
		case reflect.Float64, reflect.Float32:
			if f := rv.Float(); math.IsNaN(f) || math.IsInf(f, 0) {
				return fmt.Sprintf("%s = %g", path, f)
			}
		case reflect.Ptr, reflect.Interface:
			if !rv.IsNil() {
				return walk(path, rv.Elem())
			}
		case reflect.Struct:
			for i := 0; i < rv.NumField(); i++ {
				if bad := walk(path+"."+rv.Type().Field(i).Name, rv.Field(i)); bad != "" {
					return bad
				}
			}
		case reflect.Slice, reflect.Array:
			for i := 0; i < rv.Len(); i++ {
				if bad := walk(fmt.Sprintf("%s[%d]", path, i), rv.Index(i)); bad != "" {
					return bad
				}
			}
		}
		return ""
	}
	return walk("Final", reflect.ValueOf(v))
}

// refs holds the reference digests of one workload and seed (or of the
// workload alone, when its inputs do not depend on the seed): a list
// indexed by operation number. The references shipped in digests.json pin
// results across commits; operations without a shipped reference record
// their first run's digest in the checkout, and later runs are compared
// against that. The checkout's record has the shipped file's format, so a
// run without a shipped file records a complete replacement for it.
type refs struct {
	mu      sync.Mutex
	key     string              // "<workload>:<seed>" or "<workload>"
	shipped []string            // from digests.json, may be empty
	local   map[string][]string // the checkout's record, all keys
	path    string
	dirty   bool
}

// loadRefs reads the shipped references next to this program's sources
// and the checkout-local record under dir.
func loadRefs(shippedPath, dir, key string) (*refs, error) {
	r := &refs{key: key, local: map[string][]string{},
		path: filepath.Join(dir, "digests.json")}
	if data, err := os.ReadFile(shippedPath); err == nil {
		var all map[string][]string
		if err := json.Unmarshal(data, &all); err != nil {
			return nil, fmt.Errorf("%s: %w", shippedPath, err)
		}
		r.shipped = all[r.key]
	}
	if data, err := os.ReadFile(r.path); err == nil {
		if err := json.Unmarshal(data, &r.local); err != nil {
			return nil, fmt.Errorf("%s: %w", r.path, err)
		}
	}
	return r, nil
}

// check compares the digest of operation op with its reference, recording
// it when no reference exists yet. It returns a description of the
// mismatch, or "".
func (r *refs) check(op int, got string) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	if op < len(r.shipped) {
		if r.shipped[op] != got {
			return fmt.Sprintf("op %d digest %s, shipped reference %s", op, got, r.shipped[op])
		}
		return ""
	}
	list := r.local[r.key]
	if op < len(list) && list[op] != "" {
		if list[op] != got {
			return fmt.Sprintf("op %d digest %s, recorded reference %s", op, got, list[op])
		}
		return ""
	}
	for len(list) <= op {
		list = append(list, "")
	}
	list[op] = got
	r.local[r.key] = list
	r.dirty = true
	return ""
}

// save writes the checkout-local record when it grew.
func (r *refs) save() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.dirty {
		return nil
	}
	return writeJSON(r.path, r.local)
}

// writeJSON writes v with sorted keys, one entry per line, atomically.
func writeJSON(path string, v map[string][]string) error {
	keys := make([]string, 0, len(v))
	for k := range v {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var buf bytes.Buffer
	buf.WriteString("{\n")
	for i, k := range keys {
		kb, _ := json.Marshal(k)
		vb, _ := json.Marshal(v[k])
		fmt.Fprintf(&buf, "  %s: %s", kb, vb)
		if i < len(keys)-1 {
			buf.WriteString(",")
		}
		buf.WriteString("\n")
	}
	buf.WriteString("}\n")
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, buf.Bytes(), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
