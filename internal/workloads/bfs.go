package workloads

import (
	"bytes"
	"fmt"
	"strconv"

	"ftmrmpi/internal/cluster"
	"ftmrmpi/internal/core"
)

// Breadth First Search (§6.1: "a single stage iterative MapReduce job. The
// map tasks visit and color vertices. The reduce tasks combine the visiting
// information of each vertex. It repeats ... until the input graph is fully
// traversed.")
//
// State lines are `node<TAB>dist|adj` with dist = -1 for unvisited. Each
// level runs one MapReduce job; the driver stops when a level visits no new
// vertex.

// BFSParams scales the BFS benchmark.
type BFSParams struct {
	Graph      GraphParams
	Source     int
	MapCost    float64
	ReduceCost float64
}

// DefaultBFS returns the paper-regime configuration.
func DefaultBFS() BFSParams {
	return BFSParams{Graph: DefaultGraph(), Source: 0, MapCost: 40e-6, ReduceCost: 1e-6}
}

// GenBFSInput writes the level-0 state.
func GenBFSInput(clus *cluster.Cluster, prefix string, p BFSParams) {
	writeState(clus, prefix, p.Graph, func(node int) string {
		if node == p.Source {
			return "0"
		}
		return "-1"
	})
}

// bfsMapper visits the current frontier.
type bfsMapper struct {
	level int
	visit []byte // the proposal to the frontier's neighbours: V level+1
	cost  float64
	s     []byte // the structure value, reused: Emit copies it
}

// Map implements core.Mapper.
func (m *bfsMapper) Map(ctx *core.TaskContext, k, v []byte, out core.KVWriter) error {
	node, value, adj, ok := parseStateLine(v)
	if !ok {
		return fmt.Errorf("bfs: bad state line %q", v)
	}
	m.s = append(append(m.s[:0], 'S'), v[len(node)+1:]...) // S dist|adj
	out.Emit(node, m.s)
	if string(value) == strconv.Itoa(m.level) {
		eachNeighbour(adj, func(n []byte) { out.Emit(n, m.visit) })
	}
	return nil
}

// Cost implements core.Mapper.
func (m *bfsMapper) Cost(k, v []byte) float64 { return m.cost }

// bfsReducer combines visit proposals with the node state.
type bfsReducer struct {
	cost float64
	buf  []byte // reused: Write copies it
}

// Reduce implements core.Reducer.
func (r *bfsReducer) Reduce(ctx *core.TaskContext, key []byte, vals [][]byte, out core.RecordWriter) error {
	dist := -1
	var adj []byte // |adj of the structure record; nil until it is seen
	best := -1
	for _, v := range vals {
		switch {
		case len(v) > 0 && v[0] == 'S':
			bar := bytes.IndexByte(v, '|')
			d, err := strconv.Atoi(string(v[1:bar]))
			if err != nil {
				return fmt.Errorf("bfs: bad state %q: %v", v, err)
			}
			dist, adj = d, v[bar:]
		case len(v) > 0 && v[0] == 'V':
			d, err := strconv.Atoi(string(v[1:]))
			if err != nil {
				return fmt.Errorf("bfs: bad visit %q: %v", v, err)
			}
			if best < 0 || d < best {
				best = d
			}
		}
	}
	if adj == nil {
		// Proposal for a node with no structure record: drop (cannot
		// happen on well-formed inputs).
		return nil
	}
	if best >= 0 && (dist < 0 || best < dist) {
		dist = best
		ctx.AddCounter("visited", 1)
	}
	r.buf = append(strconv.AppendInt(r.buf[:0], int64(dist), 10), adj...)
	out.Write(key, r.buf)
	return nil
}

// Cost implements core.Reducer.
func (r *bfsReducer) Cost(key []byte, vals [][]byte) float64 {
	return r.cost * float64(len(vals))
}

// BFSLevelSpec builds the spec for one BFS level.
func BFSLevelSpec(base core.Spec, name string, level int, inputPrefix string, p BFSParams) core.Spec {
	s := base
	s.Name = fmt.Sprintf("%s-l%02d", name, level)
	s.JobID = s.Name
	s.InputPrefix = inputPrefix
	s.NewReader = core.NewLineReader
	visit := "V" + strconv.Itoa(level+1)
	s.NewMapper = func() core.Mapper { return &bfsMapper{level: level, visit: []byte(visit), cost: p.MapCost} }
	s.NewReducer = func() core.Reducer { return &bfsReducer{cost: p.ReduceCost} }
	return s
}

// BFSDriver runs levels until no new vertex is visited (or maxLevels) and
// returns the final state prefix.
func BFSDriver(app *core.App, base core.Spec, name, inputPrefix string, maxLevels int, p BFSParams) (string, error) {
	in := inputPrefix
	for level := 0; level < maxLevels; level++ {
		spec := BFSLevelSpec(base, name, level, in, p)
		res, err := app.RunJob(spec)
		if err != nil {
			return "", err
		}
		in = "out/" + spec.JobID
		if res.Counter("visited") == 0 && level > 0 {
			break
		}
	}
	return in, nil
}

// RefBFS computes reference distances sequentially.
func RefBFS(p BFSParams) []int {
	dist := make([]int, p.Graph.Nodes)
	for i := range dist {
		dist[i] = -1
	}
	dist[p.Source] = 0
	frontier := []int{p.Source}
	for len(frontier) > 0 {
		var next []int
		for _, u := range frontier {
			for _, v := range p.Graph.appendAdjacency(nil, u) {
				if dist[v] < 0 {
					dist[v] = dist[u] + 1
					next = append(next, v)
				}
			}
		}
		frontier = next
	}
	return dist
}

// ReadDistances parses a BFS state prefix into node→distance.
func ReadDistances(clus *cluster.Cluster, prefix string) map[int]int {
	out := make(map[int]int)
	eachState(clus, prefix, func(id int, value []byte) {
		if d, err := strconv.Atoi(string(value)); err == nil {
			out[id] = d
		}
	})
	return out
}
