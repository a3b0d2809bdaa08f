package main

import (
	"bytes"
	"strings"
	"testing"

	"predtop/internal/predictor"
	"predtop/internal/runledger"
)

// manifest is a small deterministic run: same seed and MRE → same run id.
func manifest(seed int64, mre float64) *runledger.Manifest {
	m := runledger.New("predtop-train", seed)
	m.SetConfig("bench", "GPT-3")
	m.RecordAttribution("Tran", &predictor.Attribution{Samples: 4, MREPct: mre})
	m.Session.StartedUnix = 1700000000 + seed
	return m
}

func runs(t *testing.T, dir string, args ...string) (stdout, stderr string, err error) {
	t.Helper()
	var out, errb bytes.Buffer
	err = run(append([]string{"-dir", dir}, args...), &out, &errb)
	return out.String(), errb.String(), err
}

func TestRunsListShowDiffBaseline(t *testing.T) {
	dir := t.TempDir()
	store := runledger.Open(dir)
	var ids []string
	for _, m := range []*runledger.Manifest{manifest(7, 30), manifest(7, 30), manifest(8, 31)} {
		e, err := store.Put(m)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, e.ID)
	}
	if ids[0] != ids[1] || ids[0] == ids[2] {
		t.Fatalf("run ids %v: want the first two equal, the third different", ids)
	}

	out, _, err := runs(t, dir, "list")
	if err != nil || strings.Count(out, "predtop-train") != 3 || !strings.Contains(out, ids[0]+".1") {
		t.Fatalf("list: %v\n%s", err, out)
	}
	if out, _, err := runs(t, dir, "list", "-tool", "predtop-eval"); err != nil || !strings.Contains(out, "no runs recorded") {
		t.Fatalf("list -tool: %v\n%s", err, out)
	}

	// show -canonical prints exactly the canonical bytes: equal for the two
	// same-seed runs, and equal to what the library renders.
	c0, _, err := runs(t, dir, "show", "-canonical", ids[0])
	if err != nil {
		t.Fatal(err)
	}
	c1, _, _ := runs(t, dir, "show", "-canonical", ids[0]+".1")
	want, _ := manifest(7, 30).CanonicalJSON()
	if c0 != c1 || c0 != string(want) {
		t.Errorf("show -canonical:\n%s---\n%s--- want\n%s", c0, c1, want)
	}
	if out, _, err := runs(t, dir, "show"); err != nil || !strings.HasPrefix(out, "run "+ids[2]) {
		t.Errorf("show (latest): %v\n%s", err, out)
	}

	if out, _, err := runs(t, dir, "diff", ids[0], ids[0]+".1"); err != nil || !strings.Contains(out, "canonical sections: identical") {
		t.Errorf("diff of reruns: %v\n%s", err, out)
	}

	if _, _, err := runs(t, dir, "baseline"); err == nil {
		t.Error("baseline printed a pin before one was set")
	}
	if out, _, err := runs(t, dir, "baseline", ids[0]); err != nil || !strings.Contains(out, "pinned baseline: "+ids[0]) {
		t.Fatalf("baseline pin: %v\n%s", err, out)
	}
	if out, _, err := runs(t, dir, "list"); err != nil || !strings.Contains(out, "*  "+ids[0]) {
		t.Errorf("list does not mark the baseline: %v\n%s", err, out)
	}
	// The sentinel passes the baseline against its rerun and trips, naming the
	// family, on the third run's +1 point held-out MRE once the threshold is
	// below that.
	if out, _, err := runs(t, dir, "diff", "-gate", ids[0]+".1"); err != nil || !strings.Contains(out, "gate: ok") {
		t.Errorf("diff -gate baseline vs rerun: %v\n%s", err, out)
	}
	if _, stderr, err := runs(t, dir, "diff", "-gate", "-mre", "0.5", ids[2]); err == nil || !strings.Contains(stderr, "gate: attribution Tran: MRE 30.00% → 31.00%") {
		t.Errorf("diff -gate did not trip on a 1-point MRE regression: %v\n%s", err, stderr)
	}
}

func TestRunsUsageErrors(t *testing.T) {
	dir := t.TempDir()
	for _, args := range [][]string{nil, {"frobnicate"}, {"list", "-nosuchflag"}, {"show", "deadbeef"}} {
		_, stderr, err := runs(t, dir, args...)
		if err == nil {
			t.Errorf("run %v succeeded", args)
		}
		if len(args) < 2 && !strings.Contains(stderr, "subcommands:") {
			t.Errorf("run %v printed no usage:\n%s", args, stderr)
		}
	}
}
