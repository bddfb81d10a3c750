package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"contango/internal/bench"
	"contango/internal/core"
	"contango/internal/eco"
	"contango/internal/obs"
	"contango/internal/service"
)

// Workload sizes.
const (
	tiSinks = 50000
	// Read-back passes over the finished contest envelopes after each
	// chain. A decode takes a few milliseconds and the machine's speed
	// drifts over seconds, so an envelope is decoded after its own chain
	// and after every later one, a little at a time over the rest of the
	// round: read-backs bunched at one moment, at the end of the round or
	// after each chain, spread by up to 0.30 from run to run while the
	// round's time spread by 0.14.
	contestSweeps = 4
	ecoBaseSinks  = 300
	ecoClients    = 2
	ecoPerClient  = 21 // ECO jobs per client per round: 42 samples, so the tail is p75
	ecoDeltaFrac  = 0.01
)

// chain runs one read → synthesize → encode → decode chain on a
// benchmark's text, the unit of work of contest and ti-build. The whole
// chain is the operation's latency. It returns the envelope and the
// decode's latency, or a nil envelope when the chain failed.
func chain(r *runner, parent *span, op int, name string, text []byte, o core.Options) ([]byte, time.Duration) {
	job := parent.child("job:" + name)
	defer job.finish()
	t0 := time.Now()
	sp := job.child("bench:read")
	b, err := bench.Read(bytes.NewReader(text))
	sp.finish()
	if err != nil {
		r.fail("%s: read: %v", name, err)
		return nil, 0
	}
	res, err := core.Synthesize(b, instrument(o, job))
	if err != nil {
		r.fail("%s: synthesize: %v", name, err)
		return nil, 0
	}
	sp = job.child("codec:encode")
	var env bytes.Buffer
	err = core.EncodeResult(&env, res)
	sp.finish()
	if err != nil {
		r.fail("%s: encode: %v", name, err)
		return nil, 0
	}
	t1 := time.Now()
	sp = job.child("codec:decode")
	dec, err := core.DecodeResult(bytes.NewReader(env.Bytes()))
	sp.finish()
	decoded := time.Since(t1)
	if err != nil {
		r.fail("%s: decode: %v", name, err)
		return nil, 0
	}
	r.op(time.Since(t0))
	r.count("codec.bytes", float64(env.Len()))
	r.produced(op, res, dec)
	return env.Bytes(), decoded
}

// readback decodes each envelope n times after a collection, so the
// synthesis's garbage and the collector's background work stay out of it,
// and adds each decode time to the envelope's samples. The chain's own
// decode is checked at the end of the round; these must decode without
// error.
func readback(r *runner, envs [][]byte, samples [][]float64, n int) bool {
	runtime.GC()
	for i := 0; i < n; i++ {
		for j, env := range envs {
			t0 := time.Now()
			if _, err := core.DecodeResult(bytes.NewReader(env)); err != nil {
				r.fail("read-back decode: %v", err)
				return false
			}
			samples[j] = append(samples[j], float64(time.Since(t0)))
		}
	}
	return true
}

// contest is the ISPD'09 suite, one benchmark after another, with the
// contest flow's fast plan: the tuning passes' simulations dominate. Its
// inputs are the published suite whatever the seed: variants of it (sinks
// moved, or pin caps varied by 10%) fail in the legalize pass with "route
// segment not rectilinear", an open defect of the program.
type contest struct {
	names []string
	texts [][]byte
}

func setupContest(r *runner, seed int64) (instance, error) {
	c := &contest{}
	for _, name := range bench.ISPD09Names() {
		b, err := bench.ISPD09(name)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := bench.Write(&buf, b); err != nil {
			return nil, err
		}
		c.names = append(c.names, name)
		c.texts = append(c.texts, buf.Bytes())
	}
	return c, nil
}

// round runs the suite's chains. After each chain it reads back every
// result finished so far, so an envelope's decodes are spread over the
// rest of the round; the read-back sample is the sum over the suite of
// each envelope's median decode time, the time to read the whole suite
// back.
func (c *contest) round(r *runner, parent *span) error {
	var envs [][]byte
	samples := make([][]float64, len(c.texts))
	whole := true
	for i := range c.texts {
		env, _ := chain(r, parent, i, c.names[i], c.texts[i], core.Options{Plan: "fast", FastSim: true})
		if env == nil {
			whole = false
			continue
		}
		envs = append(envs, env)
		whole = readback(r, envs, samples, contestSweeps) && whole
	}
	if whole {
		suite := 0.0
		for _, xs := range samples {
			suite += median(xs)
		}
		r.read(time.Duration(suite))
	}
	return nil
}

func (c *contest) close() {}

// tiBuild is one TI-style case built with the large-inverter ladder and
// no tuning: construction, one cold corner evaluation and the codec.
type tiBuild struct{ text []byte }

func setupTIBuild(r *runner, seed int64) (instance, error) {
	var buf bytes.Buffer
	if err := bench.GenerateTIScale(&buf, tiSinks, seed); err != nil {
		return nil, err
	}
	return &tiBuild{text: buf.Bytes()}, nil
}

func (t *tiBuild) round(r *runner, parent *span) error {
	// The chain's own decode is the read-back sample: one takes about a
	// second, and more of them would lengthen a run that already holds
	// three rounds of over ten seconds.
	if env, d := chain(r, parent, 0, "ti-build", t.text, core.Options{
		Plan: "zst,legalize,buffer,polarity", LargeInverters: true, FastSim: true,
	}); env != nil {
		r.read(d)
	}
	return nil
}

func (t *tiBuild) close() {}

// ecoService is a durable in-process service, opened as contangod opens
// it (fsync on, default cache size), holding a small TI base result. Each
// round is a closed loop: ecoClients clients, each waiting for its reply
// before sending again, alternate an ECO job with a fresh delta (a cache
// miss that runs and writes to the store) and a resubmission of one of
// the client's own finished requests (a cache hit). The one-to-one mix is
// an assumption: no traffic mix for ECO users is documented.
//
// The base design and the ECO stream (delta n is eco.Generate with seed
// n) are the same whatever the seed, which picks the requests
// resubmitted: the quality and cost of a 1% ECO vary so much from delta to
// delta that seeded streams of a few dozen deltas differ by far more than
// any bound a benchmark could keep. Client c of round r sends the ECO
// operations 1 + (r-1)·ecoClients·ecoPerClient + k·ecoClients + c, so the
// operation numbers a client resubmits do not depend on which client's
// jobs finish first.
type ecoService struct {
	dir     string
	svc     *service.Service
	base    *bench.Benchmark
	baseKey string
	seed    int64
	rounds  int
}

// ecoDone is a finished ECO request a client may resubmit.
type ecoDone struct {
	delta  string
	digest string
}

func ecoOptions() core.Options { return core.Options{FastSim: true} }

func setupECOService(r *runner, seed int64) (instance, error) {
	dir, err := os.MkdirTemp(workDir, "svc-")
	if err != nil {
		return nil, err
	}
	e := &ecoService{dir: dir, seed: seed}
	e.svc, err = service.Open(service.Config{Workers: 2, DataDir: dir})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	var buf bytes.Buffer
	if err := bench.GenerateTIScale(&buf, ecoBaseSinks, 1); err != nil {
		e.close()
		return nil, err
	}
	if e.base, err = bench.Read(&buf); err != nil {
		e.close()
		return nil, err
	}
	o := ecoOptions()
	o.Plan = "fast"
	j, err := e.svc.Submit(e.base, o)
	if err != nil {
		e.close()
		return nil, err
	}
	res, err := j.Wait(context.Background())
	if err != nil {
		e.close()
		return nil, err
	}
	e.baseKey = j.Key()
	r.check(0, res, nil)
	return e, nil
}

func (e *ecoService) round(r *runner, parent *span) error {
	e.rounds++ // rounds run one at a time
	first := 1 + (e.rounds-1)*ecoClients*ecoPerClient
	var wg sync.WaitGroup
	for c := 0; c < ecoClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(e.seed*7919 + int64(e.rounds*ecoClients+c)))
			var done []ecoDone
			for k := 0; k < ecoPerClient; k++ {
				if d, ok := e.eco(r, parent, first+k*ecoClients+c); ok {
					done = append(done, d)
				}
				if len(done) > 0 {
					e.hit(r, done[rng.Intn(len(done))])
				}
			}
		}(c)
	}
	wg.Wait()
	return nil
}

// eco submits ECO operation op, a fresh 1% delta, and waits for its
// result. It reports the request for resubmission when the result passed
// its check.
func (e *ecoService) eco(r *runner, parent *span, op int) (ecoDone, bool) {
	d, err := eco.Generate(e.base, ecoDeltaFrac, int64(op))
	if err != nil {
		r.fail("eco %d: generate: %v", op, err)
		return ecoDone{}, false
	}
	delta := d.String()
	job := parent.child(fmt.Sprintf("job:eco-%d", op))
	t0 := time.Now()
	j, err := e.svc.SubmitECO(e.baseKey, delta, instrument(ecoOptions(), job), service.SubmitOpts{})
	var res *core.Result
	if err == nil {
		res, err = j.Wait(context.Background())
	}
	job.finish()
	if err != nil {
		r.fail("eco %d: %v", op, err)
		return ecoDone{}, false
	}
	r.op(time.Since(t0))
	if j.CacheHit() {
		r.fail("eco %d: a fresh delta was served from the cache", op)
		return ecoDone{}, false
	}
	// The client checks each reply before it sends again, which keeps no
	// result alive after its check.
	digest := r.check(op, res, nil)
	return ecoDone{delta, digest}, digest != ""
}

// hit resubmits a finished ECO request, which the cache must serve with
// the original result.
func (e *ecoService) hit(r *runner, f ecoDone) {
	t0 := time.Now()
	j, err := e.svc.SubmitECO(e.baseKey, f.delta, ecoOptions(), service.SubmitOpts{})
	var res *core.Result
	if err == nil {
		res, err = j.Wait(context.Background())
	}
	if err != nil {
		r.fail("cache hit: %v", err)
		return
	}
	r.read(time.Since(t0))
	if !j.CacheHit() {
		r.fail("resubmitted request was not a cache hit")
		return
	}
	r.checkHit(res, f.digest)
}

// counters reads the service's registry: queue wait, store traffic and
// the cache's hit and coalescing counts.
func (e *ecoService) counters() map[string]float64 {
	var buf bytes.Buffer
	vals := map[string]float64{}
	if err := e.svc.MetricsRegistry().WriteText(&buf); err == nil {
		vals, _ = obs.ParseText(&buf)
	}
	sum := func(name string) float64 {
		t := 0.0
		for k, v := range vals {
			if k == name || strings.HasPrefix(k, name+"{") {
				t += v
			}
		}
		return t
	}
	st := e.svc.Stats()
	return map[string]float64{
		"sched.queue_wait_s":  sum("contango_sched_queue_wait_seconds_sum"),
		"store.writes":        sum("contango_store_writes_total"),
		"store.write_bytes":   sum("contango_store_write_bytes_total"),
		"store.reads":         sum("contango_store_reads_total"),
		"store.read_bytes":    sum("contango_store_read_bytes_total"),
		"service.submissions": float64(st.Submitted),
		"service.cache_hits":  float64(st.CacheHits),
		"service.coalesced":   float64(st.Coalesced),
	}
}

func (e *ecoService) close() {
	if e.svc != nil {
		e.svc.Close()
	}
	os.RemoveAll(e.dir)
}
