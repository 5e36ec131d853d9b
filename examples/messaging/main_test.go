package main

import (
	"testing"

	"shrimp/internal/golden"
)

// TestExampleGolden runs the example and compares its output with
// testdata/golden/examples/messaging.txt.
func TestExampleGolden(t *testing.T) {
	golden.Check(t, "examples/messaging.txt", golden.Stdout(t, main))
}
