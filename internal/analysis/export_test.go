package analysis

// BatchFixture exposes the multi-stage buffered fixture to the external
// golden test.
var BatchFixture = batchFixture
