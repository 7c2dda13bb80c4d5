package workloads

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"ftmrmpi/internal/cluster"
	"ftmrmpi/internal/core"
)

func testCluster() *cluster.Cluster {
	cfg := cluster.Default()
	cfg.Nodes = 4
	cfg.PPN = 2
	return cluster.New(cfg)
}

func smallWordcount() WordcountParams {
	p := DefaultWordcount()
	p.Chunks = 16
	p.Lines = 30
	p.Vocab = 200
	return p
}

func TestWordcountMatchesExpectation(t *testing.T) {
	clus := testCluster()
	p := smallWordcount()
	expect := GenCorpus(clus, "in/wc", p)
	spec := WordcountSpec("wc", "in/wc", 8, p)
	h := core.RunSingle(clus, spec)
	clus.Sim.Run()
	if h.Result().Aborted {
		t.Fatal("job aborted")
	}
	got := ReadWordCounts(clus, "wc", 8)
	if len(got) != len(expect) {
		t.Fatalf("%d words, want %d", len(got), len(expect))
	}
	for w, n := range expect {
		if got[w] != n {
			t.Fatalf("count[%s] = %d, want %d", w, got[w], n)
		}
	}
}

func smallGraph() GraphParams {
	return GraphParams{Nodes: 300, Degree: 4, Chunks: 12, Seed: 3}
}

func TestPageRankMatchesReference(t *testing.T) {
	clus := testCluster()
	p := DefaultPageRank()
	p.Graph = smallGraph()
	GenPageRankInput(clus, "in/pr", p)
	iters := 4
	var final string
	h := core.Launch(clus, 8, func(app *core.App) {
		base := core.Spec{Model: core.ModelNone}
		out, err := PageRankDriver(app, base, "pr", "in/pr", iters, p)
		if err == nil {
			final = out
		}
	})
	clus.Sim.Run()
	for _, res := range h.Results() {
		if res.Aborted {
			t.Fatal("a stage aborted")
		}
	}
	ranks := ReadRanks(clus, final)
	ref := RefPageRank(p, iters)
	if len(ranks) != p.Graph.Nodes {
		t.Fatalf("%d nodes in output, want %d", len(ranks), p.Graph.Nodes)
	}
	for i, want := range ref {
		got := ranks[i]
		if math.Abs(got-want) > 1e-6 {
			t.Fatalf("rank[%d] = %g, want %g", i, got, want)
		}
	}
}

func TestPageRankUnderDetectResumeFailure(t *testing.T) {
	clus := testCluster()
	p := DefaultPageRank()
	p.Graph = smallGraph()
	GenPageRankInput(clus, "in/prf", p)
	iters := 3
	var final string
	h := core.Launch(clus, 8, func(app *core.App) {
		base := core.Spec{Model: core.ModelDetectResumeWC, CkptInterval: 10, LoadBalance: true}
		out, err := PageRankDriver(app, base, "prf", "in/prf", iters, p)
		if err == nil {
			final = out
		}
	})
	clus.Sim.After(5*time.Millisecond, func() { h.World.Kill(3) })
	clus.Sim.Run()
	ranks := ReadRanks(clus, final)
	ref := RefPageRank(p, iters)
	if len(ranks) != p.Graph.Nodes {
		t.Fatalf("%d nodes in output, want %d (final=%q)", len(ranks), p.Graph.Nodes, final)
	}
	for i, want := range ref {
		if math.Abs(ranks[i]-want) > 1e-6 {
			t.Fatalf("rank[%d] = %g, want %g", i, ranks[i], want)
		}
	}
}

func TestBFSMatchesReference(t *testing.T) {
	clus := testCluster()
	p := DefaultBFS()
	p.Graph = smallGraph()
	GenBFSInput(clus, "in/bfs", p)
	var final string
	h := core.Launch(clus, 8, func(app *core.App) {
		base := core.Spec{Model: core.ModelNone}
		out, err := BFSDriver(app, base, "bfs", "in/bfs", 30, p)
		if err == nil {
			final = out
		}
	})
	clus.Sim.Run()
	for _, res := range h.Results() {
		if res.Aborted {
			t.Fatal("a level aborted")
		}
	}
	dist := ReadDistances(clus, final)
	ref := RefBFS(p)
	for i, want := range ref {
		if dist[i] != want {
			t.Fatalf("dist[%d] = %d, want %d", i, dist[i], want)
		}
	}
}

func TestBFSUnderContinuousFailures(t *testing.T) {
	clus := testCluster()
	p := DefaultBFS()
	p.Graph = smallGraph()
	GenBFSInput(clus, "in/bfsf", p)
	var final string
	h := core.Launch(clus, 8, func(app *core.App) {
		base := core.Spec{Model: core.ModelDetectResumeWC, CkptInterval: 10}
		out, err := BFSDriver(app, base, "bfsf", "in/bfsf", 30, p)
		if err == nil {
			final = out
		}
	})
	h.Clus.Sim.After(4*time.Millisecond, func() { h.World.Kill(2) })
	h.Clus.Sim.After(9*time.Millisecond, func() { h.World.Kill(6) })
	clus.Sim.Run()
	dist := ReadDistances(clus, final)
	ref := RefBFS(p)
	for i, want := range ref {
		if dist[i] != want {
			t.Fatalf("dist[%d] = %d, want %d", i, dist[i], want)
		}
	}
	if h.World.AliveCount() != 6 {
		t.Fatalf("alive = %d, want 6", h.World.AliveCount())
	}
}

func TestBlastMatchesExpectation(t *testing.T) {
	clus := testCluster()
	p := DefaultBlast()
	p.Queries = 300
	p.Chunks = 12
	p.CostBase = 1e-4
	p.CostPerAA = 1e-7
	expect := GenBlastInput(clus, "in/blast", p)
	spec := BlastSpec("blast", "in/blast", 8, p)
	h := core.RunSingle(clus, spec)
	clus.Sim.Run()
	if h.Result().Aborted {
		t.Fatal("job aborted")
	}
	got := ReadBlastHits(clus, "blast", 8)
	if len(got) != p.Queries {
		t.Fatalf("%d queries in output, want %d", len(got), p.Queries)
	}
	for q, hits := range expect {
		if got[q] != hits {
			t.Fatalf("hits[%s] = %q, want %q", q, got[q], hits)
		}
	}
}

func TestBlastCheckpointRestart(t *testing.T) {
	clus := testCluster()
	p := DefaultBlast()
	p.Queries = 300
	p.Chunks = 12
	p.CostBase = 1e-4
	p.CostPerAA = 1e-7
	expect := GenBlastInput(clus, "in/blastcr", p)
	spec := BlastSpec("blastcr", "in/blastcr", 8, p)
	spec.Model = core.ModelCheckpointRestart
	spec.CkptInterval = 5

	h := core.RunSingle(clus, spec)
	fired := false
	h.OnPhase(func(wr int, ph core.Phase) {
		if !fired && ph == core.PhaseMap && wr == 1 {
			fired = true
			clus.Sim.After(2*time.Millisecond, func() { h.World.Kill(1) })
		}
	})
	clus.Sim.Run()
	if !h.Result().Aborted {
		t.Fatal("first attempt should abort")
	}

	spec.Resume = true
	h2 := core.RunSingle(clus, spec)
	clus.Sim.Run()
	if h2.Result().Aborted {
		t.Fatal("restart aborted")
	}
	got := ReadBlastHits(clus, "blastcr", 8)
	for q, hits := range expect {
		if got[q] != hits {
			t.Fatalf("hits[%s] = %q, want %q", q, got[q], hits)
		}
	}
}

func TestGraphGeneratorDeterministic(t *testing.T) {
	g := smallGraph()
	for i := 0; i < g.Nodes; i += 17 {
		a := g.appendAdjacency(nil, i)
		b := g.appendAdjacency([]int{-1}, i)[1:]
		if strconv.Itoa(len(a)) != strconv.Itoa(len(b)) {
			t.Fatal("nondeterministic adjacency")
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatal("nondeterministic adjacency order")
			}
		}
		if len(a) == 0 {
			continue
		}
		for _, n := range a {
			if n < 0 || n >= g.Nodes || n == i {
				t.Fatalf("bad neighbour %d of %d", n, i)
			}
		}
	}
}

func TestWordcountCombinerEquivalence(t *testing.T) {
	p := smallWordcount()
	run := func(combine bool, kill bool) (map[string]int, int64) {
		clus := testCluster()
		name := "comb-" + strconv.FormatBool(combine) + "-" + strconv.FormatBool(kill)
		GenCorpus(clus, "in/"+name, p)
		spec := WordcountSpec(name, "in/"+name, 8, p)
		spec.Model = core.ModelDetectResumeWC
		spec.CkptInterval = 10
		if combine {
			spec = WithCombiner(spec, p)
		}
		h := core.RunSingle(clus, spec)
		if kill {
			clus.Sim.After(2*time.Millisecond, func() { h.World.Kill(3) })
		}
		clus.Sim.Run()
		if h.Result().Aborted {
			t.Fatal("aborted")
		}
		var shuffleBytes int64
		for _, m := range h.Result().Ranks {
			if m != nil {
				shuffleBytes += m.ShuffleBytes
			}
		}
		return ReadWordCounts(clus, name, 8), shuffleBytes
	}
	plain, plainBytes := run(false, false)
	comb, combBytes := run(true, false)
	combKill, _ := run(true, true)
	if len(plain) != len(comb) {
		t.Fatalf("combiner changed word set: %d vs %d", len(comb), len(plain))
	}
	for w, n := range plain {
		if comb[w] != n {
			t.Fatalf("combiner changed count[%s]: %d vs %d", w, comb[w], n)
		}
		if combKill[w] != n {
			t.Fatalf("combiner+failure changed count[%s]: %d vs %d", w, combKill[w], n)
		}
	}
	if combBytes >= plainBytes {
		t.Fatalf("combiner did not shrink shuffle: %d vs %d bytes", combBytes, plainBytes)
	}
}

// adjacencyRef is GraphParams.Adjacency as it was before the append form
// found duplicates by scanning: one map per call.
func adjacencyRef(g GraphParams, i int) []int {
	h := mix(uint64(i)*31 + uint64(g.Seed))
	deg := 1 + int(h%uint64(2*g.Degree-1))
	out := make([]int, 0, deg)
	seen := map[int]bool{}
	for j := 0; j < deg; j++ {
		h = mix(h + uint64(j))
		var nbr int
		if h%4 == 0 {
			nbr = int(mix(h) % uint64(g.Nodes/16+1))
		} else {
			nbr = int(mix(h) % uint64(g.Nodes))
		}
		if nbr != i && !seen[nbr] {
			seen[nbr] = true
			out = append(out, nbr)
		}
	}
	return out
}

// writeStateRef is writeState as it was before it formatted in place: the
// reference the rewrite must equal byte for byte.
func writeStateRef(clus *cluster.Cluster, prefix string, g GraphParams, value func(node int) string) {
	perChunk := (g.Nodes + g.Chunks - 1) / g.Chunks
	chunk := 0
	var sb strings.Builder
	for i := 0; i < g.Nodes; i++ {
		sb.WriteString(fmt.Sprintf("%d\t%s|", i, value(i)))
		for j, n := range adjacencyRef(g, i) {
			if j > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "%d", n)
		}
		sb.WriteByte('\n')
		if (i+1)%perChunk == 0 || i == g.Nodes-1 {
			clus.FS.Write(fmt.Sprintf("pfs:%s/chunk-%05d", prefix, chunk), []byte(sb.String()))
			sb.Reset()
			chunk++
		}
	}
}

// parseStateLineRef is parseStateLine as it was before it returned views:
// strings, and the neighbours split out.
func parseStateLineRef(v []byte) (node string, value string, adj []string, ok bool) {
	s := string(v)
	tab := strings.IndexByte(s, '\t')
	if tab < 0 {
		return "", "", nil, false
	}
	node = s[:tab]
	rest := s[tab+1:]
	bar := strings.IndexByte(rest, '|')
	if bar < 0 {
		return "", "", nil, false
	}
	value = rest[:bar]
	if a := rest[bar+1:]; a != "" {
		adj = strings.Split(a, ",")
	}
	return node, value, adj, true
}

func TestWriteStateMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		g := GraphParams{Nodes: 500 + 37*int(seed), Degree: 2 + int(seed), Chunks: 7, Seed: seed}
		value := func(node int) string { return strconv.Itoa(node%3 - 1) }
		got, ref := testCluster(), testCluster()
		writeState(got, "in/g", g, value)
		writeStateRef(ref, "in/g", g, value)
		files, refFiles := got.FS.List(""), ref.FS.List("")
		if !reflect.DeepEqual(files, refFiles) || len(files) != g.Chunks {
			t.Fatalf("seed %d: wrote %v, the reference %v", seed, files, refFiles)
		}
		for _, f := range files {
			a, _ := got.FS.Read(f)
			b, _ := ref.FS.Read(f)
			if !bytes.Equal(a, b) {
				t.Fatalf("seed %d: %s differs from the reference", seed, f)
			}
		}
	}
}

// parseStateLine, eachNeighbour and eachLine list what the string splitting
// they replaced listed (the views of a line that is not a state line are not
// read), and eachLine skips blank lines, as the readers always did.
func TestStateLineViewsMatchSplit(t *testing.T) {
	for _, line := range []string{"7\t0.1|", "7\t0.1|3", "7\t-1|3,14,15", "7\t0|3,", "7\t0|,", "7\t|", "\t|",
		"7\t0.1", "7 0.1|3", "", "7\t0|1|2", "7\t0\t1|2"} {
		node, value, adj, ok := parseStateLine([]byte(line))
		refNode, refValue, refAdj, refOK := parseStateLineRef([]byte(line))
		var nbrs []string
		eachNeighbour(adj, func(n []byte) { nbrs = append(nbrs, string(n)) })
		if ok != refOK || ok && (string(node) != refNode || string(value) != refValue || !reflect.DeepEqual(nbrs, refAdj)) {
			t.Errorf("%q: parsed (%q, %q, %q, %v), the reference (%q, %q, %q, %v)",
				line, node, value, nbrs, ok, refNode, refValue, refAdj, refOK)
		}
	}
	for _, data := range []string{"", "\n", "\n\n", "a", "a\n", "a\nb\n", "a\nb\n\n", "a\n\nb", "\na", "7\t0.1|\n8\t0.2|1,2\n"} {
		var lines, ref []string
		eachLine([]byte(data), func(l []byte) { lines = append(lines, string(l)) })
		for _, l := range strings.Split(strings.TrimRight(data, "\n"), "\n") {
			if l != "" {
				ref = append(ref, l)
			}
		}
		if !reflect.DeepEqual(lines, ref) {
			t.Errorf("%q: eachLine lists %q, strings.Split %q", data, lines, ref)
		}
	}
}

// pageRankMallocs runs one PageRank iteration, stage A and stage B, over a
// graph of the given size in two chunks on two ranks without checkpoints, and
// returns the allocations the run made.
func pageRankMallocs(t *testing.T, nodes int) uint64 {
	t.Helper()
	clus := testCluster()
	p := DefaultPageRank()
	p.Graph = GraphParams{Nodes: nodes, Degree: 8, Chunks: 2, Seed: 3}
	name := fmt.Sprintf("pr-allocs-%d", nodes)
	GenPageRankInput(clus, "in/"+name, p)
	var final string
	h := core.Launch(clus, 2, func(app *core.App) {
		base := core.Spec{Model: core.ModelNone}
		if out, err := PageRankDriver(app, base, name, "in/"+name, 1, p); err == nil {
			final = out
		}
	})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	clus.Sim.Run()
	runtime.ReadMemStats(&after)
	for _, res := range h.Results() {
		if res.Aborted {
			t.Fatalf("%d-node iteration: a stage aborted", nodes)
		}
	}
	if got := len(ReadRanks(clus, final)); got != nodes {
		t.Fatalf("%d-node iteration: %d ranks in the output", nodes, got)
	}
	return after.Mallocs - before.Mallocs
}

// TestPageRankAllocsPerRecord is the PageRank kernels' allocation gate: the
// stage A and stage B mappers and reducers parse each state line in place and
// format into buffers they reuse. Doubling the graph from 1024 to 2048 nodes
// reads 2048 more state lines (1024 per stage) and emits ~8 more
// contributions for each stage A line, with the tasks, partitions and ranks
// unchanged, so it may add allocations for buffer growth only (~120).
// Copying the line into a string, splitting and re-joining its neighbours,
// or formatting a contribution per record costs at least one allocation per
// state line (~11 per line before the kernels parsed in place).
func TestPageRankAllocsPerRecord(t *testing.T) {
	small, large := pageRankMallocs(t, 1024), pageRankMallocs(t, 2048)
	extra := int64(large) - int64(small)
	t.Logf("%d allocations at 1024 nodes, %d at 2048 nodes: %d more for 2048 more state lines", small, large, extra)
	if extra > 2048/8 {
		t.Errorf("2048 more state lines cost %d more allocations: a PageRank kernel allocates per record", extra)
	}
}
