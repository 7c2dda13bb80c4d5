package workloads

import (
	"bytes"
	"fmt"
	"strconv"

	"ftmrmpi/internal/cluster"
	"ftmrmpi/internal/core"
)

// PageRank (§6.1: "a representative benchmark for multi-stage iterative
// MapReduce job. In each iteration, PageRank has two stages.")
//
// State lines are `node<TAB>rank|n1,n2,...`. Each iteration runs two
// complete MapReduce stages:
//
//	stage A (rank): joins every node's structure record with its in-coming
//	  contributions and applies the damping rule;
//	stage B (audit): a full pass computing the rank mass and maximum rank
//	  movement (the convergence metric), passing the state through.
//
// Stage B's output is the next iteration's input.

const damping = 0.85

// PageRankParams scales the PageRank benchmark.
type PageRankParams struct {
	Graph      GraphParams
	MapCost    float64 // CPU seconds per state line in stage A
	ReduceCost float64 // CPU seconds per reduce value
	AuditCost  float64 // CPU seconds per state line in stage B
}

// DefaultPageRank returns the paper-regime configuration.
func DefaultPageRank() PageRankParams {
	return PageRankParams{
		Graph:      DefaultGraph(),
		MapCost:    60e-6,
		ReduceCost: 1.5e-6,
		AuditCost:  15e-6,
	}
}

// GenPageRankInput writes the iteration-0 state (uniform ranks).
func GenPageRankInput(clus *cluster.Cluster, prefix string, p PageRankParams) {
	init := fmt.Sprintf("%.10f", 1.0/float64(p.Graph.Nodes))
	writeState(clus, prefix, p.Graph, func(int) string { return init })
}

// prRankMapper emits structure and contribution records (stage A map).
type prRankMapper struct {
	cost float64
	s, c []byte // the structure and contribution values, reused: Emit copies
}

// Map implements core.Mapper.
func (m *prRankMapper) Map(ctx *core.TaskContext, k, v []byte, out core.KVWriter) error {
	node, value, adj, ok := parseStateLine(v)
	if !ok {
		return fmt.Errorf("pagerank: bad state line %q", v)
	}
	m.s = append(append(m.s[:0], 'S'), adj...)
	out.Emit(node, m.s)
	if len(adj) == 0 {
		return nil
	}
	rank, err := strconv.ParseFloat(string(value), 64)
	if err != nil {
		return fmt.Errorf("pagerank: bad rank in %q: %v", v, err)
	}
	share := rank / float64(bytes.Count(adj, []byte{','})+1)
	m.c = strconv.AppendFloat(append(m.c[:0], 'C'), share, 'g', 17, 64)
	eachNeighbour(adj, func(n []byte) { out.Emit(n, m.c) })
	return nil
}

// Cost implements core.Mapper.
func (m *prRankMapper) Cost(k, v []byte) float64 { return m.cost }

// prRankReducer joins structure with contributions (stage A reduce).
type prRankReducer struct {
	nodes int
	cost  float64
	buf   []byte // reused: Write copies it
}

// Reduce implements core.Reducer.
func (r *prRankReducer) Reduce(ctx *core.TaskContext, key []byte, vals [][]byte, out core.RecordWriter) error {
	var adj []byte
	sum := 0.0
	for _, v := range vals {
		switch {
		case len(v) > 0 && v[0] == 'S':
			adj = v[1:]
		case len(v) > 0 && v[0] == 'C':
			c, err := strconv.ParseFloat(string(v[1:]), 64)
			if err != nil {
				return fmt.Errorf("pagerank: bad contribution %q: %v", v, err)
			}
			sum += c
		}
	}
	rank := (1-damping)/float64(r.nodes) + damping*sum
	r.buf = append(strconv.AppendFloat(r.buf[:0], rank, 'f', 10, 64), '|')
	r.buf = append(r.buf, adj...)
	out.Write(key, r.buf)
	return nil
}

// Cost implements core.Reducer.
func (r *prRankReducer) Cost(key []byte, vals [][]byte) float64 {
	return r.cost * float64(len(vals))
}

// prAuditMapper passes state through and accumulates the rank mass counter
// (stage B map).
type prAuditMapper struct{ cost float64 }

// Map implements core.Mapper.
func (m *prAuditMapper) Map(ctx *core.TaskContext, k, v []byte, out core.KVWriter) error {
	node, value, _, ok := parseStateLine(v)
	if !ok {
		return fmt.Errorf("pagerank: bad state line %q", v)
	}
	rank, err := strconv.ParseFloat(string(value), 64)
	if err != nil {
		return err
	}
	ctx.AddCounter("rankmass_e12", int64(rank*1e12))
	out.Emit(node, v[len(node)+1:]) // value|adj, as read
	return nil
}

// Cost implements core.Mapper.
func (m *prAuditMapper) Cost(k, v []byte) float64 { return m.cost }

// prAuditReducer writes the single state value back out (stage B reduce).
type prAuditReducer struct{ cost float64 }

// Reduce implements core.Reducer.
func (r *prAuditReducer) Reduce(ctx *core.TaskContext, key []byte, vals [][]byte, out core.RecordWriter) error {
	if len(vals) > 0 {
		out.Write(key, vals[0])
	}
	return nil
}

// Cost implements core.Reducer.
func (r *prAuditReducer) Cost(key []byte, vals [][]byte) float64 {
	return r.cost * float64(len(vals))
}

// PageRankStageSpecs returns the two stage specs of one iteration. base
// supplies the fault-tolerance configuration; inputPrefix feeds stage A and
// stage B's output prefix ("out/<stageB-JobID>") feeds the next iteration.
func PageRankStageSpecs(base core.Spec, name string, iter int, inputPrefix string, p PageRankParams) (stageA, stageB core.Spec) {
	stageA = base
	stageA.Name = fmt.Sprintf("%s-i%02d-rank", name, iter)
	stageA.JobID = stageA.Name
	stageA.InputPrefix = inputPrefix
	stageA.NewReader = core.NewLineReader
	stageA.NewMapper = func() core.Mapper { return &prRankMapper{cost: p.MapCost} }
	stageA.NewReducer = func() core.Reducer { return &prRankReducer{nodes: p.Graph.Nodes, cost: p.ReduceCost} }

	stageB = base
	stageB.Name = fmt.Sprintf("%s-i%02d-audit", name, iter)
	stageB.JobID = stageB.Name
	stageB.InputPrefix = "out/" + stageA.JobID
	stageB.NewReader = core.NewLineReader
	stageB.NewMapper = func() core.Mapper { return &prAuditMapper{cost: p.AuditCost} }
	stageB.NewReducer = func() core.Reducer { return &prAuditReducer{cost: p.ReduceCost} }
	return stageA, stageB
}

// PageRankDriver runs `iters` iterations (two stages each) inside an
// application and returns the final state prefix.
func PageRankDriver(app *core.App, base core.Spec, name, inputPrefix string, iters int, p PageRankParams) (string, error) {
	in := inputPrefix
	for i := 0; i < iters; i++ {
		a, b := PageRankStageSpecs(base, name, i, in, p)
		if _, err := app.RunJob(a); err != nil {
			return "", err
		}
		if _, err := app.RunJob(b); err != nil {
			return "", err
		}
		in = "out/" + b.JobID
	}
	return in, nil
}

// RefPageRank computes the sequential reference ranks.
func RefPageRank(p PageRankParams, iters int) []float64 {
	n := p.Graph.Nodes
	rank := make([]float64, n)
	for i := range rank {
		rank[i] = 1.0 / float64(n)
	}
	var adj []int
	for it := 0; it < iters; it++ {
		next := make([]float64, n)
		for i := range next {
			next[i] = (1 - damping) / float64(n)
		}
		for i := 0; i < n; i++ {
			adj = p.Graph.appendAdjacency(adj[:0], i)
			if len(adj) == 0 {
				continue
			}
			share := rank[i] / float64(len(adj))
			for _, nb := range adj {
				next[nb] += damping * share
			}
		}
		rank = next
	}
	return rank
}

// ReadRanks parses a PageRank state prefix into node→rank.
func ReadRanks(clus *cluster.Cluster, prefix string) map[int]float64 {
	out := make(map[int]float64)
	eachState(clus, prefix, func(id int, value []byte) {
		if r, err := strconv.ParseFloat(string(value), 64); err == nil {
			out[id] = r
		}
	})
	return out
}
