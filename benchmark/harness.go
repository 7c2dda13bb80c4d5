package benchmark

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// Stat summarizes one end-to-end metric over a workload's untraced
// repetitions. With n <= 11 no percentile above the median has ten samples
// beyond it, so median, min and max are all that is reported.
type Stat struct {
	Median float64   `json:"median"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	N      int       `json:"n"`
	Values []float64 `json:"values"` // in run order; nothing is discarded
}

func newStat(values []float64) Stat {
	s := Stat{N: len(values), Values: values}
	if s.N == 0 {
		return s
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	s.Min, s.Max = sorted[0], sorted[s.N-1]
	s.Median = sorted[s.N/2]
	if s.N%2 == 0 {
		s.Median = (sorted[s.N/2-1] + sorted[s.N/2]) / 2
	}
	return s
}

// of is the value metric m is reported and compared by: the best
// repetition where the metric says so, the median otherwise.
func (s Stat) of(m Metric) float64 {
	switch {
	case !m.Best:
		return s.Median
	case m.Better == "higher":
		return s.Max
	}
	return s.Min
}

// spread is the min-max range as a share of the median.
func (s Stat) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Max - s.Min) / s.Median
}

// Determinism is what must be bit-identical across the repetitions of one
// workload and seed, and across host-only changes.
type Determinism struct {
	VirtS  float64 `json:"virt_s"`
	Events uint64  `json:"vtime_events"`
	Digest string  `json:"output_sha256"`
}

// WorkloadResult is everything measured for one workload.
type WorkloadResult struct {
	Name        string             `json:"name"`
	RunsTotal   int                `json:"runs_total"`
	RunsFailed  int                `json:"runs_failed"`
	Failures    []string           `json:"failures,omitempty"`
	Determinism Determinism        `json:"determinism"`
	EndToEnd    map[string]Stat    `json:"end_to_end,omitempty"`
	PerLayer    map[string]float64 `json:"per_layer,omitempty"` // from the traced repetition
	Spans       []Span             `json:"spans,omitempty"`     // the traced repetition's
	Runs        []runRecord        `json:"runs"`                // every run made, with its wall time
}

// runRecord is the per-run line of the ledger.
type runRecord struct {
	ID       int      `json:"id"`
	Traced   bool     `json:"traced"`
	ChildS   float64  `json:"child_s"` // whole process, start to exit
	WallS    float64  `json:"wall_s"`
	Failures []string `json:"failures,omitempty"`
}

// runner runs repetitions either in fresh child processes (one at a time, so
// nothing is shared between repetitions and peak RSS is per repetition) or,
// under -smoke, in this process.
type runner struct {
	exe    string // empty: in-process
	sz     sizes
	seed   int64
	stderr io.Writer
}

// peakRSSMB is the process's high-water resident set (ru_maxrss is in KB).
func peakRSSMB(ru *syscall.Rusage) float64 { return float64(ru.Maxrss) / 1024 }

// child runs this program again with the given arguments and decodes the
// JSON document it prints into out.
func (rn *runner) child(timeout time.Duration, out any, args ...string) (*syscall.Rusage, error) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, rn.exe, args...)
	// One P: the simulator runs one simulated process at a time, and with
	// more the cost of each handoff depends on which thread the runtime
	// wakes, which made the spread between runs 2.5 times wider.
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, rn.stderr
	if err := cmd.Run(); err != nil {
		if ctx.Err() != nil {
			return nil, fmt.Errorf("child exceeded %v and was killed", timeout)
		}
		return nil, fmt.Errorf("child: %w", err)
	}
	if err := json.Unmarshal(stdout.Bytes(), out); err != nil {
		return nil, fmt.Errorf("child output: %w", err)
	}
	ru, _ := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	return ru, nil
}

// rep runs one repetition and returns its result with the process metrics
// filled in, and the whole process's wall time.
func (rn *runner) rep(workload string, traced bool, id int, timeout time.Duration) (*Rep, float64, error) {
	start := time.Now()
	if rn.exe == "" {
		rep, err := runRep(workload, rn.seed, rn.sz, traced, id)
		if err != nil {
			return nil, 0, err
		}
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
			return nil, 0, err
		}
		rep.PeakRSSMB = peakRSSMB(&ru)
		return rep, time.Since(start).Seconds(), nil
	}
	args := []string{"-child", "rep", "-workload", workload, "-seed", strconv.FormatInt(rn.seed, 10), "-id", strconv.Itoa(id)}
	if traced {
		args = append(args, "-traced")
	}
	rep := new(Rep)
	ru, err := rn.child(timeout, rep, args...)
	if err != nil {
		return nil, time.Since(start).Seconds(), err
	}
	if ru != nil {
		rep.PeakRSSMB = peakRSSMB(ru)
	}
	return rep, time.Since(start).Seconds(), nil
}

// plan says how much to run for one workload.
type plan struct {
	reps    int           // untraced repetitions; 0: as many as fit in seconds
	seconds time.Duration // measuring time for the untraced repetitions
	minReps int
	traced  bool // follow with one traced repetition
}

// measure runs one workload to plan.
func (rn *runner) measure(workload string, pl plan) *WorkloadResult {
	res := &WorkloadResult{Name: workload}
	var good []*Rep
	timeout := 150 * time.Second
	fail := func(msg string) {
		res.RunsFailed++
		res.Failures = append(res.Failures, msg)
	}
	run := func(traced bool) *Rep {
		id := res.RunsTotal
		res.RunsTotal++
		rep, childS, err := rn.rep(workload, traced, id, timeout)
		rec := runRecord{ID: id, Traced: traced, ChildS: childS}
		defer func() { res.Runs = append(res.Runs, rec) }()
		if err != nil {
			rec.Failures = []string{err.Error()}
			fail(fmt.Sprintf("run %d: %v", id, err))
			return nil
		}
		rec.WallS, rec.Failures = rep.WallS, rep.Failures
		if len(rep.Failures) > 0 {
			fail(fmt.Sprintf("run %d: %s", id, rep.Failures[0]))
			return nil
		}
		d := Determinism{rep.VirtS, rep.Events, rep.Digest}
		if res.Determinism == (Determinism{}) {
			res.Determinism = d
		} else if d != res.Determinism {
			fail(fmt.Sprintf("run %d: determinism break: %+v, earlier runs had %+v", id, d, res.Determinism))
			return nil
		}
		return rep
	}

	start := time.Now()
	var typical time.Duration // the median repetition so far, process start to exit
	for n := 0; ; n++ {
		if pl.reps > 0 && n >= pl.reps {
			break
		}
		// The last repetition is the one that should end before the time is
		// up, so that a run takes what it was given and no more.
		if pl.reps == 0 && n >= pl.minReps && time.Since(start)+typical >= pl.seconds {
			break
		}
		if rep := run(false); rep != nil {
			good = append(good, rep)
			var child []float64
			for _, r := range res.Runs {
				child = append(child, r.ChildS)
			}
			typical = time.Duration(newStat(child).Median * float64(time.Second))
			// A repetition that takes ten times the median counts as failed.
			timeout = 10*typical + 5*time.Second
		}
	}
	col := func(f func(*Rep) float64) Stat {
		vals := make([]float64, len(good))
		for i, r := range good {
			vals[i] = f(r)
		}
		return newStat(vals)
	}
	if len(good) > 0 {
		res.EndToEnd = map[string]Stat{
			"wall_s":        col(func(r *Rep) float64 { return r.WallS }),
			"setup_s":       col(func(r *Rep) float64 { return r.SetupS }),
			"records_per_s": col(func(r *Rep) float64 { return float64(r.Records) / r.WallS }),
			"peak_rss_mb":   col(func(r *Rep) float64 { return r.PeakRSSMB }),
			"alloc_mb":      col(func(r *Rep) float64 { return r.AllocMB }),
			"virt_s":        col(func(r *Rep) float64 { return r.VirtS }),
		}
	}
	if !pl.traced {
		return res
	}
	timeout = 150 * time.Second
	tr := run(true)
	if tr == nil {
		return res
	}
	res.Spans = tr.Spans
	layer := tr.Layer
	if len(good) > 0 {
		// Host numbers that tracing would distort come from the untraced
		// repetitions.
		for _, k := range []string{"go.mallocs", "go.num_gc", "go.heap_sys_mb"} {
			layer[k] = col(func(r *Rep) float64 { return r.Layer[k] }).Median
		}
		layer["go.kb_per_rank"] = res.EndToEnd["peak_rss_mb"].Median * 1024 / float64(tr.Ranks)
		layer["vtime.ns_per_event"] = 1e9 * col(func(r *Rep) float64 { return r.Layer["span.sim_run_s"] }).Median / float64(tr.Events)
		layer["traced.wall_overhead_pct"] = 100 * (tr.WallS/res.EndToEnd["wall_s"].Median - 1)
	}
	res.PerLayer = map[string]float64{}
	for _, m := range PerLayer {
		if !isProbe(m.Name) {
			res.PerLayer[m.Name] = layer[m.Name] // 0 where the workload has none
		}
	}
	return res
}

// loadavg is the host's load when the benchmark started ("" off Linux).
func loadavg() string {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return ""
	}
	return string(bytes.TrimSpace(b))
}
