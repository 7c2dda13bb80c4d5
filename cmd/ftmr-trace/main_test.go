package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The committed fixtures of the packages whose files ftmr-trace reads.
const (
	traces  = "../../internal/trace/testdata/"
	crit    = "../../internal/trace/critpath/testdata/"
	snaps   = "../../internal/metrics/testdata/"
	streams = "../../internal/introspect/testdata/"
	junk    = "../../internal/jsonl/testdata/junk.bin"
)

// TestVerbText runs every verb on the committed fixtures, on both kinds of
// file where a verb reads both, and pins what it prints: `make selftest`
// checks the exit statuses through the real binary but discards the text.
// Regenerate testdata/*.txt with FTMR_UPDATE_GOLDEN=1.
func TestVerbText(t *testing.T) {
	for _, c := range []struct {
		golden string // testdata/<golden>.txt holds the expected stdout
		exit   int
		args   string
	}{
		{"diff_trace_same", 0, "diff " + traces + "golden_v2.jsonl " + traces + "golden_v2.jsonl"},
		{"diff_trace", 1, "diff " + traces + "div_a.jsonl " + traces + "div_b.jsonl"},
		{"diff_trace_max1", 1, "diff -max 1 -tol 1us " + traces + "div_a.jsonl " + traces + "div_b.jsonl"},
		{"diff_om_same", 0, "diff " + snaps + "golden.om " + snaps + "golden.om"},
		{"diff_om", 1, "diff -max 6 " + snaps + "golden.om " + snaps + "selftest.om"},
		{"summarize_trace", 0, "summarize -skew " + traces + "golden_v2.jsonl"},
		{"summarize_om", 0, "summarize " + snaps + "golden.om"},
		{"flows", 0, "flows " + traces + "golden_v2.jsonl"},
		{"flows_dup_recv", 1, "flows " + traces + "dup_recv.jsonl"},
		{"critpath", 0, "critpath -top 3 " + crit + "base.jsonl"},
		{"critpath_against", 1, "critpath -against " + crit + "base.jsonl " + crit + "regressed.jsonl"},
		{"chrome", 0, "chrome " + traces + "golden_v2.jsonl"},
		{"inspect", 1, "inspect " + streams + "deadlock.jsonl"},
		{"inspect_dot", 1, "inspect -waitgraph " + streams + "deadlock.jsonl"},
		{"health", 0, "health " + snaps + "selftest.om"},
		{"health_breach", 1, "health -slo-ckpt-overhead 0.01 " + snaps + "selftest.om"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(strings.Fields(c.args), &stdout, &stderr); code != c.exit {
			t.Errorf("%s: exit %d, want %d (stderr %q)", c.args, code, c.exit, stderr.String())
			continue
		}
		if stderr.Len() != 0 {
			t.Errorf("%s: stderr = %q, want none on a clean fixture", c.args, stderr.String())
		}
		path := filepath.Join("testdata", c.golden+".txt")
		if os.Getenv("FTMR_UPDATE_GOLDEN") != "" {
			if err := os.WriteFile(path, stdout.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (regenerate with FTMR_UPDATE_GOLDEN=1)", err)
		}
		if !bytes.Equal(stdout.Bytes(), want) {
			t.Errorf("%s: stdout drifted from %s:\n--- got ---\n%s--- want ---\n%s", c.args, path, stdout.String(), want)
		}
	}
}

// TestRefusals pins the one usage contract: arguments or input the command
// cannot use are exit status 2 with nothing on stdout and one line on stderr
// (the verb table after it for a missing or unknown verb) — a verb handed the
// kind of file it does not read and two files of different kinds included.
func TestRefusals(t *testing.T) {
	for _, c := range []struct {
		args  string
		want  string // substring of the first stderr line
		table bool   // the verb table follows
	}{
		{"", "usage: ftmr-trace <command>", true},
		{"bogus", `unknown command "bogus"`, true},
		{"render " + snaps + "golden.om", `unknown command "render"`, true},
		{"diff " + traces + "golden_v2.jsonl " + snaps + "golden.om", "diff compares two files of one kind", false},
		{"diff " + snaps + "golden.om " + traces + "golden_v2.jsonl", "diff compares two files of one kind", false},
		{"diff -tol 1ms " + snaps + "golden.om " + snaps + "golden.om", "-tol aligns trace events", false},
		{"summarize -skew " + snaps + "golden.om", "-skew compares ranks' trace events", false},
		{"flows " + snaps + "golden.om", "flows reads a JSONL stream", false},
		{"critpath " + snaps + "golden.om", "critpath reads a JSONL stream", false},
		{"critpath -against " + snaps + "golden.om " + crit + "base.jsonl", "critpath reads a JSONL stream", false},
		{"chrome " + snaps + "golden.om", "chrome reads a JSONL stream", false},
		{"inspect " + snaps + "golden.om", "inspect reads a JSONL stream", false},
		{"health " + traces + "golden_v2.jsonl", "health reads an OpenMetrics snapshot", false},
		{"health " + junk, "health reads an OpenMetrics snapshot", false},
		{"diff " + junk + " " + traces + "golden_v2.jsonl", "junk.bin", false},
		{"summarize " + junk, "junk.bin", false},
		{"flows " + junk, "junk.bin", false},
		{"critpath " + junk, "junk.bin", false},
		{"chrome " + junk, "junk.bin", false},
		{"inspect " + junk, "junk.bin", false},
		{"flows testdata/no-such-file", "no-such-file", false},
		{"diff " + traces + "golden_v2.jsonl", "usage: ftmr-trace diff", false},
		{"flows", "usage: ftmr-trace flows T.jsonl", false},
		{"health -slo-bogus 1 " + snaps + "golden.om", "flag provided but not defined", false},
	} {
		var stdout, stderr bytes.Buffer
		code := run(strings.Fields(c.args), &stdout, &stderr)
		msg := stderr.String()
		first, rest, _ := strings.Cut(msg, "\n")
		if code != 2 || !strings.Contains(first, c.want) {
			t.Errorf("%q: exit %d, stderr %q; want exit 2 and a first line mentioning %q", c.args, code, msg, c.want)
		}
		if c.table != strings.Contains(rest, "\ncommands:\n") {
			t.Errorf("%q: stderr = %q, verb table = %v, want %v", c.args, msg, !c.table, c.table)
		}
		// A bad flag is the flag package's line plus the verb's synopsis.
		if !c.table && rest != "" && !strings.HasPrefix(first, "flag provided") {
			t.Errorf("%q: stderr = %q, want one line", c.args, msg)
		}
		if stdout.Len() != 0 {
			t.Errorf("%q: wrote %q to stdout before refusing", c.args, stdout.String())
		}
	}
}

// TestDamagedTraceIsAnalyzed: lines that do not decode next to lines that do
// are a warning on stderr, and the verb runs on what decoded. Leading blank
// lines do not hide what a file is.
func TestDamagedTraceIsAnalyzed(t *testing.T) {
	good, err := os.ReadFile(traces + "golden_v2.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cut.jsonl")
	if err := os.WriteFile(path, append([]byte("\n \n"), append(good, `{"seq":`...)...), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"flows", path}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, want 0 (stderr %q)", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "warning: "+path) || !strings.Contains(stdout.String(), "flow invariants hold") {
		t.Fatalf("stderr %q, stdout %q; want a damage warning and a verdict", stderr.String(), stdout.String())
	}

	om, err := os.ReadFile(snaps + "golden.om")
	if err != nil {
		t.Fatal(err)
	}
	path = filepath.Join(t.TempDir(), "blank.om")
	if err := os.WriteFile(path, append([]byte("\n\n"), om...), 0o644); err != nil {
		t.Fatal(err)
	}
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"diff", path, snaps + "golden.om"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, want 0 (stdout %q, stderr %q)", code, stdout.String(), stderr.String())
	}
}
