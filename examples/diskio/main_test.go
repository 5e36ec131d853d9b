package main

import (
	"testing"

	"shrimp/internal/golden"
)

// TestExampleGolden runs the example and compares its output with
// testdata/golden/examples/diskio.txt.
func TestExampleGolden(t *testing.T) {
	golden.Check(t, "examples/diskio.txt", golden.Stdout(t, main))
}
