package main

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"ftmrmpi/internal/introspect"
	"ftmrmpi/internal/metrics"
	"ftmrmpi/internal/trace"
	"ftmrmpi/internal/trace/critpath"
)

// TestFlagValidation drives the real flag parser with every flag combination
// the layers below would answer with a panic (rank counts the cluster cannot
// hold) or silently ignore (a kill aimed at no rank, a replication model the
// execution model cannot honour, a replica tier with nothing to replicate, a
// resubmission no model asks for, a kill rank with no phase to die in, two
// failure modes of which the run would keep one, negative counts, and values
// the layers below would silently replace: a replica fraction outside [0,1],
// a non-positive kill interval, chaos window or snapshot cadence), and a
// -report directory that cannot be written: each must be refused up front
// with exit status 2 and exactly one line on stderr.
func TestFlagValidation(t *testing.T) {
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	orphan := filepath.Join(t.TempDir(), "missing", "run")
	for _, c := range []struct {
		args string
		want string // substring of the one-line message
	}{
		{"-procs 0", "-procs must be between 1 and 2048"},
		{"-procs -3", "-procs must be between 1 and 2048"},
		{"-procs 100000", "-procs must be between 1 and 2048"},
		{"-procs 8 -kill-phase map -kill-rank 99", "-kill-rank 99 is not a rank of a 8-rank job"},
		{"-procs 8 -kill-rank 8", "-kill-rank 8 is not a rank"},
		{"-procs 8 -kill-rank -2", "-kill-rank -2 is not a rank"},
		{"-procs 8 -kill-phase shuffle", `unknown -kill-phase "shuffle"`},
		{"-procs 8 -kill-rank 3", "-kill-rank 3 kills no rank without -kill-phase (map|reduce)"},
		{"-procs 8 -chaos 2 -kill-phase map", "-chaos, -kills and -kill-phase each choose how ranks die: set one of them"},
		{"-procs 8 -kills 2 -kill-phase reduce", "-chaos, -kills and -kill-phase each choose how ranks die"},
		{"-procs 8 -chaos 2 -kills 2", "-chaos, -kills and -kill-phase each choose how ranks die"},
		{"-ft-model replicate -model cr", "-ft-model replicate requires -model wc or nwc, got -model cr"},
		{"-ft-model partial -model none", "-ft-model partial requires -model wc or nwc"},
		{"-ft-model bogus", "bogus"},
		{"-replica-k -1", "-replica-k must not be negative, got -1"},
		{"-replica-k 2 -ft-model replicate", "-replica-k 2 has no effect under -ft-model replicate"},
		{"-replica-k 1 -model nwc -ft-model partial", "-replica-k 1 has no effect under -ft-model partial"},
		{"-replica-k 2 -model nwc", "-replica-k 2 requires a checkpointing model (-model cr or wc), got -model nwc"},
		{"-replica-k 2 -model none", "-replica-k 2 requires a checkpointing model"},
		{"-replica-fraction 0.3", "-replica-fraction requires -ft-model partial, got -ft-model cr"},
		{"-replica-fraction 0.3 -ft-model replicate", "-replica-fraction requires -ft-model partial, got -ft-model replicate"},
		{"-model nwc -ft-model partial -replica-fraction 5", "-replica-fraction must be between 0 and 1, got 5"},
		{"-model nwc -ft-model partial -replica-fraction -0.3", "-replica-fraction must be between 0 and 1, got -0.3"},
		{"-procs 8 -kill-phase map -restart", "-restart resubmits an aborted checkpoint/restart job: it requires -model cr, got -model wc"},
		{"-ckpt-interval -5", "-ckpt-interval must be at least 1 record, got -5"},
		{"-ckpt-interval 0", "-ckpt-interval must be at least 1"},
		{"-workload pagerank -iters 0", "-iters must be at least 1, got 0"},
		{"-iters -1", "-iters must be at least 1, got -1"},
		{"-kills -1", "must not be negative"},
		{"-chaos -1", "must not be negative"},
		{"-kills 2 -kill-every -5ms", "-kill-every must be positive with -kills, got -5ms"},
		{"-kills 2 -kill-every 0s", "-kill-every must be positive with -kills, got 0s"},
		{"-chaos 2 -chaos-window -1s", "-chaos-window must be positive with -chaos, got -1s"},
		{"-introspect-interval -1s", "-introspect-interval must be positive, got -1s"},
		{"-introspect-interval 0s", "-introspect-interval must be positive, got 0s"},
		{"-procs 8 -introspect-interval 1ms", "-introspect-interval has no effect without -report"},
		{"-granularity block", `unknown -granularity "block"`},
		{"-workload sort", `unknown -workload "sort"`},
		{"-model bogus", `unknown model "bogus"`},
		{"-lb-model bogus", "bogus"},
		{"-outage 5ms", "-outage"},
		{"-outage 9ms,2ms", "-outage"},
		{"-procs 8 stray", `unexpected argument "stray"`},
		{"-procs 8 -report " + file, "-report: open " + filepath.Join(file, traceFile) + ": not a directory"},
		{"-procs 8 -report " + orphan, "-report: mkdir " + orphan + ": no such file or directory"},
	} {
		var stdout, stderr bytes.Buffer
		code := run(strings.Fields(c.args), &stdout, &stderr)
		msg := stderr.String()
		if code != 2 {
			t.Errorf("%s: exit %d, want 2 (stderr %q)", c.args, code, msg)
		}
		if strings.Count(msg, "\n") != 1 || !strings.HasPrefix(msg, "ftmr-sim: ") || !strings.Contains(msg, c.want) {
			t.Errorf("%s: stderr = %q, want one ftmr-sim: line mentioning %q", c.args, msg, c.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("%s: wrote %q to stdout before refusing", c.args, stdout.String())
		}
	}
}

// TestRunSmallJob checks the same entry point end to end on flags that are
// valid: the aimed kill fires and the job recovers.
func TestRunSmallJob(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(strings.Fields("-procs 4 -kill-phase map -kill-rank 3"), &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s%s", code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stdout.String(), "aborted=false") || !strings.Contains(stdout.String(), "failed-ranks=[3]") {
		t.Fatalf("stdout = %q, want a recovered job that lost rank 3", stdout.String())
	}
}

// TestRestartResumesTheApplication: -restart resubmits an aborted
// multi-job application whole, so the PageRank stages after the aborted one
// run too.
func TestRestartResumesTheApplication(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(strings.Fields("-workload pagerank -iters 1 -procs 4 -model cr -kill-phase map -restart"), &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s%s", code, stdout.String(), stderr.String())
	}
	var jobs []string
	for _, line := range strings.Split(stdout.String(), "\n") {
		if f := strings.Fields(line); len(f) > 2 && f[0] == "job" {
			jobs = append(jobs, f[1]+" "+f[2])
		}
	}
	want := []string{"job-i00-rank aborted=true", "job-i00-rank aborted=false", "job-i00-audit aborted=false"}
	if !slices.Equal(jobs, want) {
		t.Fatalf("jobs %q, want %q\n%s", jobs, want, stdout.String())
	}
}

// TestReportDir checks -report end to end: the run directory holds exactly
// the four files; the trace's flows pair up; critpath.txt is critpath.Analyze
// of the trace read back, rendered at the top 10 segments (what `ftmr-trace
// critpath DIR/trace.jsonl` prints); the introspection stream decodes clean;
// and metrics.om parses, with the critical-path shares in it.
func TestReportDir(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	if code := run(strings.Fields("-procs 4 -kill-phase map -report "+dir), &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s%s", code, stdout.String(), stderr.String())
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if want := []string{critpathFile, introspectFile, metricsFile, traceFile}; !slices.Equal(names, want) {
		t.Fatalf("report directory holds %v, want %v", names, want)
	}
	open := func(name string) *os.File {
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f.Close() })
		return f
	}

	events, rr, err := trace.ReadJSONL(open(traceFile))
	if err != nil || !rr.Clean() {
		t.Fatalf("%s: %v, %v", traceFile, err, rr.Err())
	}
	if fr := trace.CheckFlows(events); !fr.OK() || fr.Matched == 0 {
		t.Errorf("%s: %d matched flows, violations %v", traceFile, fr.Matched, fr.Violations)
	}
	rep, err := critpath.Analyze(events)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	rep.Render(&want, 10)
	got, err := os.ReadFile(filepath.Join(dir, critpathFile))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("%s is not the report of %s read back:\n--- got ---\n%s--- want ---\n%s", critpathFile, traceFile, got, want.Bytes())
	}

	if lines, rr, err := introspect.ReadJSONL(open(introspectFile)); err != nil || !rr.Clean() || len(lines) == 0 {
		t.Errorf("%s: %d lines, %v, %v", introspectFile, len(lines), err, rr.Err())
	}

	snap, err := metrics.ParseOpenMetrics(open(metricsFile))
	if err != nil {
		t.Fatalf("%s: %v", metricsFile, err)
	}
	if total := snap.Total(metrics.MCritPathShare); total < 0.999 || total > 1.001 {
		t.Errorf("%s: critical-path shares add up to %v, want 1", metricsFile, total)
	}
}

// TestReportKeepsTheJobsClock: -report turns the introspection plane on, and
// an observer must not move the virtual time it observes. A run with -report
// prints what the same run without it prints; its trace and metrics do not
// depend on the plane's cadence, so an aborted checkpoint/restart job is
// resubmitted at the same instant under either cadence; and the snapshot is
// stamped at the job's last traced event, not at a later tick.
func TestReportKeepsTheJobsClock(t *testing.T) {
	for _, args := range []string{
		"-procs 8 -kill-phase map",
		"-procs 8 -model cr -kill-phase map -restart",
	} {
		var bare, bareErr bytes.Buffer
		if code := run(strings.Fields(args), &bare, &bareErr); code != 0 {
			t.Fatalf("%s: exit %d\n%s", args, code, bareErr.String())
		}
		var reports [2]map[string][]byte
		for i, cadence := range []string{"100ms", "3ms"} {
			dir := t.TempDir()
			var stdout, stderr bytes.Buffer
			if code := run(strings.Fields(args+" -introspect-interval "+cadence+" -report "+dir), &stdout, &stderr); code != 0 {
				t.Fatalf("%s -report: exit %d\n%s", args, code, stderr.String())
			}
			if stdout.String() != bare.String() {
				t.Errorf("%s -introspect-interval %s -report printed\n%s\nwithout -report\n%s", args, cadence, stdout.String(), bare.String())
			}
			reports[i] = map[string][]byte{}
			for _, name := range []string{traceFile, metricsFile} {
				b, err := os.ReadFile(filepath.Join(dir, name))
				if err != nil {
					t.Fatal(err)
				}
				reports[i][name] = b
			}
		}
		for _, name := range []string{traceFile, metricsFile} {
			if !bytes.Equal(reports[0][name], reports[1][name]) {
				t.Errorf("%s: %s differs between -introspect-interval 100ms and 3ms", args, name)
			}
		}
		events, _, err := trace.ReadJSONL(bytes.NewReader(reports[0][traceFile]))
		if err != nil || len(events) == 0 {
			t.Fatalf("%s: %s: %d events, %v", args, traceFile, len(events), err)
		}
		snap, err := metrics.ParseOpenMetrics(bytes.NewReader(reports[0][metricsFile]))
		if err != nil {
			t.Fatal(err)
		}
		if last := events[len(events)-1].VT.Seconds(); snap.VTSeconds != last {
			t.Errorf("%s: %s stamped at %vs, want the job's last event at %vs", args, metricsFile, snap.VTSeconds, last)
		}
	}
}
