package benchmark

import (
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"ftmrmpi/internal/cluster"
	"ftmrmpi/internal/core"
	"ftmrmpi/internal/failure"
	"ftmrmpi/internal/workloads"
)

// sizes fixes every workload dimension. The full sizes are cut from the
// issue's (W=1024 / Lines=2048 / W=256 / W=384) so that one contract run of
// run_seconds holds at least seven repetitions; the ratios that give each
// workload its host-CPU split are kept. Smoke sizes keep every code path at
// W <= 32.
type sizes struct {
	scaleW int // wc-scale ranks; Chunks = 2W

	dataW, dataChunks, dataLines int // wc-data

	mixW, mixLines     int // recover-mix wordcount scenarios; Chunks = 2W
	prNodes, prChunks  int // recover-mix pagerank-cont graph
	prKills            int // one per job of the driver, from the first on
	obsW               int // wc-observed ranks; Chunks = 2W
	introspectInterval time.Duration

	probeDiv int // layer probes run at 1/probeDiv of their full size
}

var fullSizes = sizes{
	scaleW: 640,
	dataW:  16, dataChunks: 128, dataLines: 2048,
	mixW: 128, mixLines: 64, prNodes: 16000, prChunks: 256, prKills: 4,
	obsW: 256, introspectInterval: 10 * time.Millisecond,
	probeDiv: 1,
}

var smokeSizes = sizes{
	scaleW: 16,
	dataW:  4, dataChunks: 8, dataLines: 64,
	mixW: 8, mixLines: 16, prNodes: 200, prChunks: 16, prKills: 2,
	obsW: 8, introspectInterval: time.Millisecond,
	probeDiv: 200,
}

// verifier checks a scenario's outputs against the sequential reference and
// returns a digest of the sorted outputs.
type verifier func(c *cluster.Cluster) (digest []byte, err error)

// scenario is one cluster's worth of work inside a repetition.
type scenario struct {
	name    string
	ranks   int
	records int64 // input records (fixed per workload: the records_per_s numerator)
	// observed turns all three instrumentation planes on in every repetition
	// and runs the analysis pipeline inside wall_s.
	observed bool
	// gen writes the input (set-up clock) and returns the output checker.
	gen func(c *cluster.Cluster) verifier
	// launch starts the application and wires the failure injector.
	launch func(c *cluster.Cluster) *core.Handle
	// resubmit, when set, relaunches after the first attempt — which is then
	// expected to abort — the way a checkpoint/restart user would.
	resubmit func(c *cluster.Cluster, first *core.Result) *core.Handle
	kills    int // ranks the injector must have killed by the end
}

// victim is the world rank the single-kill scenarios lose.
func victim(w int, seed int64) int {
	v := (int64(w/2) + seed - 1) % int64(w)
	if v < 0 {
		v += int64(w)
	}
	return int(v)
}

func newCluster(ranks int) *cluster.Cluster {
	cfg := cluster.Default()
	cfg.Nodes = (ranks + cfg.PPN - 1) / cfg.PPN
	return cluster.New(cfg)
}

func wcParams(seed int64, chunks, lines int) workloads.WordcountParams {
	p := workloads.DefaultWordcount()
	p.Chunks, p.Lines, p.Seed = chunks, lines, seed
	return p
}

// digestLines hashes output lines in sorted order.
func digestLines(lines []string) []byte {
	sort.Strings(lines)
	h := sha256.New()
	for _, l := range lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	return h.Sum(nil)
}

// wordcount builds a wordcount scenario: spec tweaks in mutate, failure
// wiring in inject.
func wordcount(name string, w int, p workloads.WordcountParams, mutate func(*core.Spec), inject func(*core.Handle)) scenario {
	in := "in/" + name
	spec := func() core.Spec {
		s := workloads.WordcountSpec(name, in, w, p)
		s.LoadBalance = true
		if mutate != nil {
			mutate(&s)
		}
		return s
	}
	return scenario{
		name:    name,
		ranks:   w,
		records: int64(p.Chunks) * int64(p.Lines),
		gen: func(c *cluster.Cluster) verifier {
			want := workloads.GenCorpus(c, in, p)
			return func(c *cluster.Cluster) ([]byte, error) {
				got := workloads.ReadWordCounts(c, name, w)
				lines := make([]string, 0, len(got))
				for k, n := range got {
					lines = append(lines, fmt.Sprintf("%s\t%d", k, n))
					if want[k] != n {
						return nil, fmt.Errorf("%s: count of %q is %d, reference says %d", name, k, n, want[k])
					}
				}
				if len(got) != len(want) {
					return nil, fmt.Errorf("%s: %d distinct words in the output, reference has %d", name, len(got), len(want))
				}
				return digestLines(lines), nil
			}
		},
		launch: func(c *cluster.Cluster) *core.Handle {
			h := core.RunSingle(c, spec())
			if inject != nil {
				inject(h)
			}
			return h
		},
	}
}

func killIn(ph core.Phase, rank int, delay time.Duration) func(*core.Handle) {
	return func(h *core.Handle) { failure.KillOnPhase(h, rank, ph, delay) }
}

func model(m core.Model) func(*core.Spec) { return func(s *core.Spec) { s.Model = m } }

// killPerJob kills one live rank, drawn with seed, in each of the first n
// jobs of a multi-job application: delay after the first rank enters that
// job's map phase. A rank's init entries count its jobs, and a rank is in
// map only once every rank has passed the job's init barrier, so no kill can
// catch ranks on both sides of a job boundary. failure.Continuous, which
// kills on the virtual clock, does: the newer job is then restarted on a
// fresh runner whose copier is never stopped, and the run ends with stranded
// processes on 7 of seeds 1-170 (README, hazards).
func killPerJob(h *core.Handle, n int, delay time.Duration, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	jobOf := map[int]int{}
	killed := 0
	h.OnPhase(func(rank int, ph core.Phase) {
		if ph == core.PhaseInit {
			jobOf[rank]++
		}
		if ph != core.PhaseMap || killed >= n || jobOf[rank] <= killed {
			return
		}
		killed++
		alive := h.World.AliveRanks()
		failure.KillAt(h.World, alive[rng.Intn(len(alive))], h.Clus.Sim.Now()+delay)
	})
}

// pagerankCont is PageRank losing a rank in every job: a multi-job driver on
// a communicator that keeps shrinking.
func pagerankCont(sz sizes, seed int64) scenario {
	const name, iters = "pagerank-cont", 2
	p := workloads.DefaultPageRank()
	p.Graph.Nodes, p.Graph.Chunks, p.Graph.Seed = sz.prNodes, sz.prChunks, seed
	var final string
	return scenario{
		name:    name,
		ranks:   sz.mixW,
		records: int64(p.Graph.Nodes) * iters * 2,
		kills:   sz.prKills,
		gen: func(c *cluster.Cluster) verifier {
			workloads.GenPageRankInput(c, "in/"+name, p)
			return func(c *cluster.Cluster) ([]byte, error) {
				got := workloads.ReadRanks(c, final)
				want := workloads.RefPageRank(p, iters)
				if len(got) != len(want) {
					return nil, fmt.Errorf("%s: %d nodes in the output, reference has %d", name, len(got), len(want))
				}
				lines := make([]string, 0, len(got))
				for i, r := range want {
					if math.Abs(got[i]-r) > 1e-9 {
						return nil, fmt.Errorf("%s: rank of node %d is %.12f, reference says %.12f", name, i, got[i], r)
					}
					lines = append(lines, fmt.Sprintf("%d\t%.10f", i, got[i]))
				}
				return digestLines(lines), nil
			}
		},
		launch: func(c *cluster.Cluster) *core.Handle {
			base := core.Spec{Model: core.ModelDetectResumeWC, LoadBalance: true}
			h := core.Launch(c, sz.mixW, func(app *core.App) {
				if out, err := workloads.PageRankDriver(app, base, name, "in/"+name, iters, p); err == nil {
					final = out
				}
			})
			killPerJob(h, sz.prKills, time.Millisecond, seed)
			return h
		},
	}
}

// failureFree is the single scenario of wc-scale or wc-data under model m.
// Checkpoints are the Spec defaults: every 100 records to the local disk,
// drained by the copier, two-pass convert.
func failureFree(workload string, sz sizes, seed int64, m core.Model) scenario {
	if workload == "wc-scale" {
		return wordcount(workload, sz.scaleW, wcParams(seed, 2*sz.scaleW, 16), model(m), nil)
	}
	return wordcount(workload, sz.dataW, wcParams(seed, sz.dataChunks, sz.dataLines), model(m), nil)
}

// scenarios returns the work of one repetition of a workload.
func scenarios(workload string, sz sizes, seed int64) ([]scenario, error) {
	const ms = time.Millisecond
	switch workload {
	case "wc-scale", "wc-data":
		return []scenario{failureFree(workload, sz, seed, core.ModelDetectResumeWC)}, nil
	case "recover-mix":
		w := sz.mixW
		v := victim(w, seed)
		p := wcParams(seed, 2*w, sz.mixLines)
		killed := func(s scenario) scenario { s.kills = 1; return s }
		cr := killed(wordcount("cr-restart", w, p, func(s *core.Spec) {
			s.Model = core.ModelCheckpointRestart
			s.Granularity = core.GranChunk
			s.CkptLocation = core.LocDirectPFS
			s.Convert = core.ConvertFourPass
		}, killIn(core.PhaseMap, v, ms)))
		cr.resubmit = func(c *cluster.Cluster, first *core.Result) *core.Handle {
			spec := first.Spec
			spec.Resume, spec.Prefetch = true, true
			return core.RunSingle(c, spec)
		}
		return []scenario{
			cr,
			killed(wordcount("dr-wc-map", w, p, model(core.ModelDetectResumeWC), killIn(core.PhaseMap, v, ms))),
			killed(wordcount("dr-wc-replica", w, p, func(s *core.Spec) {
				s.Model = core.ModelDetectResumeWC
				s.ReplicaK = 1
			}, killIn(core.PhaseReduce, v, 0))),
			killed(wordcount("dr-nwc-map", w, p, model(core.ModelDetectResumeNWC), killIn(core.PhaseMap, v, ms))),
			// Primaries are world ranks 0..W/2-1: v-W/2 ... is a primary, so
			// the kill exercises shadow failover rather than a shadow loss.
			killed(wordcount("replicate", w, p, func(s *core.Spec) {
				s.Model = core.ModelDetectResumeWC
				s.FTModel = core.FTModelReplicate
			}, killIn(core.PhaseMap, v%(w/2), ms))),
			pagerankCont(sz, seed),
		}, nil
	case "wc-observed":
		w := sz.obsW
		s := wordcount("wc-observed", w, wcParams(seed, 2*w, 16), model(core.ModelDetectResumeWC),
			killIn(core.PhaseMap, victim(w, seed), ms))
		s.kills = 1
		s.observed = true
		return []scenario{s}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", workload)
}
