package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestStdoutIsGolden runs the example and compares what it prints with
// testdata/stdout.golden, byte for byte.
func TestStdoutIsGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "stdout.golden"))
	if err != nil {
		t.Fatal(err)
	}
	out, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	stdout := os.Stdout
	os.Stdout = out
	defer func() { os.Stdout = stdout }()
	main()
	got, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("the example printed\n%s\ntestdata/stdout.golden holds\n%s", got, want)
	}
}
