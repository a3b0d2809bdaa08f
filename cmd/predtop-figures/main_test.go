package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestFiguresFig6TeesIntoOut(t *testing.T) {
	out := filepath.Join(t.TempDir(), "f.txt")
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-fig", "6", "-out", out}, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, &stderr)
	}
	file, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if stdout.Len() == 0 || stdout.String() != string(file) {
		t.Errorf("stdout and -out differ:\n%s---\n%s", &stdout, file)
	}
	if !strings.Contains(stdout.String(), "Fig 6") {
		t.Errorf("no Fig 6 in the report:\n%s", &stdout)
	}
	if err := run([]string{"-preset", "huge"}, &stdout, &stderr); err == nil {
		t.Error("unknown preset accepted")
	}
}
