package bench

import (
	"fmt"
	"time"

	"ftmrmpi/internal/core"
	"ftmrmpi/internal/failure"
	"ftmrmpi/internal/workloads"
)

// prParams returns the PageRank sizing used by the benchmarks.
func (s Scale) prParams() workloads.PageRankParams {
	p := workloads.DefaultPageRank()
	if s.Quick {
		p.Graph.Nodes = 8000
		p.Graph.Chunks = 128
	}
	return p
}

// runPageRankApp runs `iters` PageRank iterations and returns the handle
// plus total wall time across all stage jobs.
func runPageRankApp(name string, procs, iters int, p workloads.PageRankParams,
	base core.Spec, setup func(h *core.Handle)) (*core.Handle, time.Duration) {
	clus := newCluster(procs)
	workloads.GenPageRankInput(clus, "in/"+name, p)
	h := core.Launch(clus, procs, func(app *core.App) {
		_, _ = workloads.PageRankDriver(app, base, name, "in/"+name, iters, p)
	})
	if setup != nil {
		setup(h)
	}
	clus.Sim.Run()
	rs := h.Results()
	if len(rs) == 0 {
		return h, 0
	}
	return h, rs[len(rs)-1].End - rs[0].Start
}

// fig03 — recovery time by checkpoint granularity (§4.1.2 Figure 3):
// PageRank under checkpoint/restart, failure mid-map, restarted; the
// restart's recovery time decomposes into initialization, runtime state
// recovery (checkpoint reads), and skip-or-reprocess.
func fig03(s Scale) *Table {
	t := &Table{
		ID:      "fig3",
		Title:   "Recovery time by checkpoint granularity (PageRank, CR model, 256 procs)",
		Columns: []string{"granularity", "init(s)", "recover-runtime(s)", "skip/reprocess(s)", "total(s)"},
	}
	procs := min(256, s.MaxProcs)
	p := s.prParams()
	// Heavier per-record compute so the failure lands mid-map with partially
	// processed chunks — the case where skip-vs-reprocess differs (§4.1.2).
	p.MapCost = 2e-3
	var totals [2]time.Duration
	for i, g := range []core.Granularity{core.GranRecord, core.GranChunk} {
		g := g
		name := "fig3-" + g.String()
		clus := newCluster(procs)
		workloads.GenPageRankInput(clus, "in/"+name, p)
		base := ftSpec(core.Spec{}, core.ModelCheckpointRestart)
		base.Granularity = g
		base.CkptInterval = 5 // fine-grained record commits
		run := func(resume bool) *core.Handle {
			b := base
			b.Resume = resume
			return core.Launch(clus, procs, func(app *core.App) {
				_, _ = workloads.PageRankDriver(app, b, name, "in/"+name, 1, p)
			})
		}
		h := run(false)
		failure.KillOnPhase(h, procs/3, core.PhaseMap, 200*time.Millisecond)
		clus.Sim.Run()
		h2 := run(true)
		clus.Sim.Run()
		// Aggregate the restart's recovery decomposition (first restarted
		// job only — the one that actually recovers).
		var init, load, skiprep time.Duration
		for _, res := range h2.Results() {
			rb := res.RecoveryTotal()
			init += res.PhaseTotal(core.PhaseInit) + rb.Init
			load += rb.LoadCkpt
			skiprep += rb.Skip + rb.Reprocess
		}
		n := time.Duration(procs)
		init, load, skiprep = init/n, load/n, skiprep/n
		totals[i] = init + load + skiprep
		t.AddRow(g.String(), secs(init), secs(load), secs(skiprep), secs(totals[i]))
	}
	t.AddRow("chunk/record", "", "", "", ratio(totals[1], totals[0]))
	t.Notes = append(t.Notes,
		"paper: chunk-granularity recovery is ~38% longer than record granularity because reprocessing beats skipping")
	return t
}

// continuousTable implements Figures 11 and 12: completion time under
// continuous failures versus the number of absent processes, for the
// work-conserving and non-work-conserving detect/resume models, against a
// failure-free reference run with the same number of absent processes.
func continuousTable(id, title string, s Scale, absents []int,
	runApp func(name string, procs int, base core.Spec, setup func(h *core.Handle)) time.Duration) *Table {
	t := &Table{
		ID:      id,
		Title:   title,
		Columns: []string{"absent", "work-conserving(s)", "non-work-conserving(s)", "reference(s)"},
	}
	procs := min(256, s.MaxProcs)
	// Estimate the job length to derive the kill cadence (the paper uses a
	// fixed 5 s on ~2000 s jobs; we keep the same kills-per-job ratio).
	refFull := runApp(id+"-est", procs, ftSpec(core.Spec{}, core.ModelNone), nil)
	for _, k := range absents {
		if k >= procs {
			continue
		}
		k := k
		interval := refFull / time.Duration(3*k/2+2)
		kill := func(h *core.Handle) {
			failure.Continuous(h.World, interval, k, splitmixPick(int64(k)))
		}
		wc := runApp(fmt.Sprintf("%s-wc-%d", id, k), procs, ftSpec(core.Spec{}, core.ModelDetectResumeWC), kill)
		nwc := runApp(fmt.Sprintf("%s-nwc-%d", id, k), procs, ftSpec(core.Spec{}, core.ModelDetectResumeNWC), kill)
		ref := runApp(fmt.Sprintf("%s-ref-%d", id, k), procs-k, ftSpec(core.Spec{}, core.ModelNone), nil)
		t.AddRow(fmt.Sprint(k), secs(wc), secs(nwc), secs(ref))
	}
	t.Notes = append(t.Notes,
		"paper: WC degrades gracefully and can beat the shrunken-size reference; NWC loses finished work and blows up with many failures")
	return t
}

// fig11 — PageRank under continuous failures (§6.4 Figure 11).
func fig11(s Scale) *Table {
	absents := []int{1, 2, 4, 8, 16, 32, 64}
	if s.Quick {
		absents = []int{1, 4, 16}
	}
	p := s.prParams()
	iters := 2
	return continuousTable("fig11", "PageRank completion time with continuous failures (256 procs)",
		s, absents,
		func(name string, procs int, base core.Spec, setup func(h *core.Handle)) time.Duration {
			_, wall := runPageRankApp(name, procs, iters, p, base, setup)
			return wall
		})
}

// fig12 — BFS under continuous failures (§6.4 Figure 12).
func fig12(s Scale) *Table {
	absents := []int{1, 2, 4, 8, 16, 32, 64, 128}
	if s.Quick {
		absents = []int{1, 4, 16}
	}
	p := workloads.DefaultBFS()
	if s.Quick {
		p.Graph.Nodes = 8000
		p.Graph.Chunks = 128
	}
	return continuousTable("fig12", "BFS completion time with continuous failures (256 procs)",
		s, absents,
		func(name string, procs int, base core.Spec, setup func(h *core.Handle)) time.Duration {
			clus := newCluster(procs)
			workloads.GenBFSInput(clus, "in/"+name, p)
			h := core.Launch(clus, procs, func(app *core.App) {
				_, _ = workloads.BFSDriver(app, base, name, "in/"+name, 6, p)
			})
			if setup != nil {
				setup(h)
			}
			clus.Sim.Run()
			rs := h.Results()
			if len(rs) == 0 {
				return 0
			}
			return rs[len(rs)-1].End - rs[0].Start
		})
}

// blastParams returns the BLAST sizing used by the benchmarks.
func (s Scale) blastParams() workloads.BlastParams {
	p := workloads.DefaultBlast()
	if s.Quick {
		p.Queries = 2000
		p.Chunks = 128
	}
	return p
}

// runBlast runs one BLAST-sim job.
func runBlast(name string, procs int, p workloads.BlastParams, model core.Model,
	mutate func(*core.Spec), kill *killPlan) wcRun {
	clus := newCluster(procs)
	workloads.GenBlastInput(clus, "in/"+name, p)
	spec := ftSpec(workloads.BlastSpec(name, "in/"+name, procs, p), model)
	if mutate != nil {
		mutate(&spec)
	}
	h := core.RunSingle(clus, spec)
	applyKill(h, kill)
	clus.Sim.Run()
	return wcRun{clus: clus, h: h, res: h.Result()}
}

// fig13 — normalized failure-free completion time of MR-MPI-BLAST (§6.5
// Figure 13).
func fig13(s Scale) *Table {
	t := &Table{
		ID:    "fig13",
		Title: "Normalized MR-MPI-BLAST completion time without failure (vs MR-MPI)",
		Columns: []string{"procs", "mr-mpi(s)", "mr-mpi", "ckpt/restart",
			"detect/resume(WC)", "detect/resume(NWC)"},
	}
	p := s.blastParams()
	for _, procs := range s.procSweep(32) {
		base := runBlast(fmt.Sprintf("fig13-base-%d", procs), procs, p, core.ModelNone, nil, nil)
		cr := runBlast(fmt.Sprintf("fig13-cr-%d", procs), procs, p, core.ModelCheckpointRestart, nil, nil)
		wc := runBlast(fmt.Sprintf("fig13-wc-%d", procs), procs, p, core.ModelDetectResumeWC, nil, nil)
		nwc := runBlast(fmt.Sprintf("fig13-nwc-%d", procs), procs, p, core.ModelDetectResumeNWC, nil, nil)
		t.AddRow(fmt.Sprint(procs), secs(base.res.Elapsed()), "1.00",
			ratio(cr.res.Elapsed(), base.res.Elapsed()),
			ratio(wc.res.Elapsed(), base.res.Elapsed()),
			ratio(nwc.res.Elapsed(), base.res.Elapsed()))
	}
	t.Notes = append(t.Notes,
		"paper: only 5-6% overhead for the checkpointing models — the external-library compute dominates")
	return t
}

// fig14 — recovery time of MR-MPI-BLAST (§6.5 Figure 14): the extra time a
// mid-map failure costs each system, relative to its own failure-free run.
func fig14(s Scale) *Table {
	t := &Table{
		ID:      "fig14",
		Title:   "MR-MPI-BLAST recovery time after one mid-map failure (256 procs)",
		Columns: []string{"system", "no-failure(s)", "with-failure(s)", "recovery(s)", "vs-mr-mpi"},
	}
	procs := min(256, s.MaxProcs)
	p := s.blastParams()
	kill := &killPlan{rank: procs / 2, phase: core.PhaseMap, delay: 40 * time.Millisecond}
	var mrRec time.Duration
	for _, m := range []core.Model{core.ModelNone, core.ModelCheckpointRestart, core.ModelDetectResumeWC, core.ModelDetectResumeNWC} {
		clean := runBlast(fmt.Sprintf("fig14-clean-%s", m), procs, p, m, nil, nil)
		fail := runBlast(fmt.Sprintf("fig14-fail-%s", m), procs, p, m, nil, kill)
		var total time.Duration
		switch m {
		case core.ModelNone:
			spec := fail.res.Spec
			spec.Name += "-retry"
			spec.JobID = spec.Name
			retry := rerunWC(fail, spec)
			total = fail.res.Elapsed() + retry.res.Elapsed()
		case core.ModelCheckpointRestart:
			spec := fail.res.Spec
			spec.Resume = true
			retry := rerunWC(fail, spec)
			total = fail.res.Elapsed() + retry.res.Elapsed()
		default:
			total = fail.res.Elapsed()
		}
		rec := total - clean.res.Elapsed()
		if rec < 0 {
			rec = 0
		}
		if m == core.ModelNone {
			mrRec = rec
		}
		t.AddRow(m.String(), secs(clean.res.Elapsed()), secs(total), secs(rec), pct(rec, mrRec))
	}
	t.Notes = append(t.Notes,
		"paper: CR recovers 65% faster and DR(WC) 91% faster than MR-MPI; DR(NWC) pays full reprocessing")
	return t
}
