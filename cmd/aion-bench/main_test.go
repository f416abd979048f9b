package main

import (
	"os"
	"testing"
)

// TestFailureRemovesTempDir runs invocations that fail — an unknown
// experiment, and an experiment returning an error — and checks that each
// still removes the aion-bench-* directory it made under TMPDIR.
func TestFailureRemovesTempDir(t *testing.T) {
	for _, args := range [][]string{
		{"-exp", "nosuch"},
		{"-exp", "write", "-committers", "x"},
	} {
		tmp := t.TempDir()
		t.Setenv("TMPDIR", tmp)
		if err := run(args); err == nil {
			t.Fatalf("run(%q) succeeded, want an error", args)
		}
		left, err := os.ReadDir(tmp)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range left {
			t.Errorf("run(%q) left %s behind in TMPDIR", args, e.Name())
		}
	}
}
