package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/experiments"
)

func TestRunSubset(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-run", "e7"}, &out); err != nil {
		t.Fatalf("run(-run e7): %v", err)
	}
	if !strings.Contains(out.String(), "E7") {
		t.Errorf("output missing E7 table:\n%s", out.String())
	}
}

func TestRunRegexFilter(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-run", "e1|e7"}, &out); err != nil {
		t.Fatalf("run(-run e1|e7): %v", err)
	}
	s := out.String()
	if !strings.Contains(s, "E1 —") || !strings.Contains(s, "E7 —") {
		t.Errorf("expected E1 and E7 tables:\n%s", s)
	}
	if strings.Contains(s, "E10 —") {
		t.Errorf("whole-ID anchoring violated, E10 leaked in:\n%s", s)
	}
}

func TestRunJSON(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-run", "e7", "-json"}, &out); err != nil {
		t.Fatalf("run(-run e7 -json): %v", err)
	}
	var tables []*experiments.Table
	if err := json.Unmarshal(out.Bytes(), &tables); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if len(tables) != 1 || tables[0].ID != "E7" {
		t.Errorf("unexpected tables: %+v", tables)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run([]string{"-run", "e99"}, &bytes.Buffer{}); err == nil {
		t.Error("unknown experiment should error")
	}
}

func TestRunBadPattern(t *testing.T) {
	if err := run([]string{"-run", "e[("}, &bytes.Buffer{}); err == nil {
		t.Error("invalid regexp should error")
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-nope"}, &bytes.Buffer{}); err == nil {
		t.Error("bad flag should error")
	}
}

// TestRunAllParallelByteIdentical runs the full registry sequentially
// and with a saturated worker pool; the rendered output must be
// byte-identical (the acceptance bar for the parallel runner).
func TestRunAllParallelByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full E1–E13 regeneration is the slow lane")
	}
	var seq, par bytes.Buffer
	if err := run([]string{"-parallel", "1"}, &seq); err != nil {
		t.Fatalf("sequential run: %v", err)
	}
	if err := run([]string{"-parallel", "8"}, &par); err != nil {
		t.Fatalf("parallel run: %v", err)
	}
	if !bytes.Equal(seq.Bytes(), par.Bytes()) {
		t.Error("-parallel 8 output differs from -parallel 1")
	}
}
