// Package scenario runs one simulated job the one way every figure and
// ftmr-sim run it: a cluster sized for the job's ranks, the workload's input
// generated on it, the job launched under a fault-tolerance spec, failures
// injected, the simulation driven to its end, and an aborted job resubmitted
// as its model requires.
package scenario

import (
	"time"

	"ftmrmpi/internal/cluster"
	"ftmrmpi/internal/core"
	"ftmrmpi/internal/failure"
	"ftmrmpi/internal/workloads"
)

// Scenario is one job and everything that happens to it.
type Scenario struct {
	// Name names the job: its input is generated under in/<Name>, and its
	// job names (and so its output and checkpoint paths) derive from it.
	Name string
	// Procs is the job's rank count; it also sizes the cluster.
	Procs    int
	Workload Workload
	// Spec is the fault-tolerance configuration. The workload lays its job's
	// name, ranks, input and user code over it.
	Spec core.Spec
	// Kills are armed on the first attempt.
	Kills []Kill
	// Observe, when set, attaches observation planes to the fresh cluster
	// before the input is generated (instruments bind per rank at launch).
	Observe func(clus *cluster.Cluster)
	// Inject, when set, runs after each attempt is launched and before its
	// kills are armed and it is simulated: continuous kills, chaos, slow
	// ranks, storage faults, or kills that depend on the attempt.
	Inject func(h *core.Handle, attempt int)
	// Retries is how many times an aborted attempt is resubmitted: a
	// checkpointing model resumes the same job from its checkpoints, any
	// other reruns it from scratch as <name>-retry.
	Retries int
}

// Kill kills Rank Delay after it first enters Phase (failure.KillOnPhase).
type Kill struct {
	Rank  int
	Phase core.Phase
	Delay time.Duration
}

// Workload generates a job's input and runs its jobs.
type Workload struct {
	gen func(clus *cluster.Cluster, in string)
	// job is a single-job workload's job spec; drive runs a multi-job
	// workload on one rank. Exactly one is set.
	job   func(name, in string, procs int) core.Spec
	drive func(app *core.App, base core.Spec, name, in string)
}

// Wordcount is one wordcount job over a generated corpus.
func Wordcount(p workloads.WordcountParams) Workload {
	return Workload{
		gen: func(clus *cluster.Cluster, in string) { workloads.GenCorpus(clus, in, p) },
		job: func(name, in string, procs int) core.Spec { return workloads.WordcountSpec(name, in, procs, p) },
	}
}

// Blast is one BLAST-sim job over a generated query set.
func Blast(p workloads.BlastParams) Workload {
	return Workload{
		gen: func(clus *cluster.Cluster, in string) { workloads.GenBlastInput(clus, in, p) },
		job: func(name, in string, procs int) core.Spec { return workloads.BlastSpec(name, in, procs, p) },
	}
}

// PageRank is iters PageRank iterations, two jobs each.
func PageRank(p workloads.PageRankParams, iters int) Workload {
	return Workload{
		gen: func(clus *cluster.Cluster, in string) { workloads.GenPageRankInput(clus, in, p) },
		drive: func(app *core.App, base core.Spec, name, in string) {
			_, _ = workloads.PageRankDriver(app, base, name, in, iters, p)
		},
	}
}

// BFS is BFS levels until none visits a new vertex, at most maxLevels.
func BFS(p workloads.BFSParams, maxLevels int) Workload {
	return Workload{
		gen: func(clus *cluster.Cluster, in string) { workloads.GenBFSInput(clus, in, p) },
		drive: func(app *core.App, base core.Spec, name, in string) {
			_, _ = workloads.BFSDriver(app, base, name, in, maxLevels, p)
		},
	}
}

// NewCluster builds a fresh paper-shaped cluster of just the nodes procs
// ranks occupy: small jobs get small clusters, and runs past the default
// 2048 slots (the 10k-rank ceiling) grow it to fit.
func NewCluster(procs int) *cluster.Cluster {
	cfg := cluster.Default()
	cfg.Nodes = (procs + cfg.PPN - 1) / cfg.PPN
	return cluster.New(cfg)
}

// Outcome is what running a scenario leaves: the cluster, whose file systems
// hold every attempt's checkpoints and outputs, and one handle per attempt.
type Outcome struct {
	Clus     *cluster.Cluster
	Attempts []*core.Handle
}

// Run runs sc to the end of its last attempt.
func Run(sc Scenario) Outcome {
	clus := NewCluster(sc.Procs)
	if sc.Observe != nil {
		sc.Observe(clus)
	}
	in := "in/" + sc.Name
	sc.Workload.gen(clus, in)
	o := Outcome{Clus: clus}
	spec, name := sc.Spec, sc.Name
	for attempt := 0; ; attempt++ {
		h := launch(clus, sc, spec, name, in)
		if sc.Inject != nil {
			sc.Inject(h, attempt)
		}
		if attempt == 0 {
			for _, k := range sc.Kills {
				failure.KillOnPhase(h, k.Rank, k.Phase, k.Delay)
			}
		}
		clus.Introspect.Start()
		clus.Sim.Run()
		o.Attempts = append(o.Attempts, h)
		if attempt == sc.Retries || !aborted(h) {
			return o
		}
		if spec.Model.Checkpointing() {
			spec.Resume = true
		} else {
			name = sc.Name + "-retry"
		}
	}
}

// launch starts one attempt of the workload as the job name.
func launch(clus *cluster.Cluster, sc Scenario, spec core.Spec, name, in string) *core.Handle {
	w := sc.Workload
	if w.drive != nil {
		return core.Launch(clus, sc.Procs, func(app *core.App) { w.drive(app, spec, name, in) })
	}
	job := w.job(name, in, sc.Procs)
	spec.Name, spec.JobID, spec.NumRanks, spec.InputPrefix = job.Name, job.JobID, job.NumRanks, job.InputPrefix
	spec.NewReader, spec.NewMapper, spec.NewReducer = job.NewReader, job.NewMapper, job.NewReducer
	return core.RunSingle(clus, spec)
}

// aborted reports whether any job of an attempt aborted.
func aborted(h *core.Handle) bool {
	for _, r := range h.Results() {
		if r.Aborted {
			return true
		}
	}
	return false
}

// Result returns the first job of the first attempt (nil if it never
// started).
func (o Outcome) Result() *core.Result { return o.Attempts[0].Result() }

// Results returns every attempt's job results in submission order.
func (o Outcome) Results() []*core.Result {
	var rs []*core.Result
	for _, h := range o.Attempts {
		rs = append(rs, h.Results()...)
	}
	return rs
}

// Elapsed returns the virtual time attempt i took: from its first job's
// start to its last job's end.
func (o Outcome) Elapsed(i int) time.Duration {
	rs := o.Attempts[i].Results()
	if len(rs) == 0 {
		return 0
	}
	return rs[len(rs)-1].End - rs[0].Start
}

// Total returns the virtual time of every attempt together: the failed runs
// and the resubmissions that finished the job.
func (o Outcome) Total() time.Duration {
	var t time.Duration
	for i := range o.Attempts {
		t += o.Elapsed(i)
	}
	return t
}
