package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestFlagValidation drives the real flag parser with every flag combination
// the layers below would answer with a panic (rank counts the cluster cannot
// hold) or silently ignore (a kill aimed at no rank, a replication model the
// execution model cannot honour, a replica tier with nothing to replicate, a
// resubmission no model asks for, negative counts, and values the layers
// below would silently replace: a replica fraction outside [0,1], a
// non-positive kill interval, chaos window or snapshot cadence): each must be
// refused up front with exit status 2 and exactly one line on stderr.
func TestFlagValidation(t *testing.T) {
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
		{"-granularity block", `unknown -granularity "block"`},
		{"-trace-format xml", `unknown -trace-format "xml"`},
		{"-workload sort", `unknown -workload "sort"`},
		{"-model bogus", `unknown model "bogus"`},
		{"-lb-model bogus", "bogus"},
		{"-outage 5ms", "-outage"},
		{"-outage 9ms,2ms", "-outage"},
		{"-procs 8 stray", `unexpected argument "stray"`},
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
