package workloads

import (
	"bytes"
	"fmt"
	"slices"
	"strconv"

	"ftmrmpi/internal/cluster"
)

// Graph generation shared by the PageRank and BFS benchmarks: a
// deterministic sparse directed graph with skewed degrees (R-MAT-flavoured),
// stored as state lines `node<TAB>value|n1,n2,...` split across chunk files.

// GraphParams describes a synthetic graph.
type GraphParams struct {
	Nodes  int
	Degree int // average out-degree
	Chunks int
	Seed   int64
}

// DefaultGraph is the scaled-down stand-in for the paper's 250 GB inputs.
func DefaultGraph() GraphParams {
	return GraphParams{Nodes: 60000, Degree: 8, Chunks: 512, Seed: 3}
}

func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// appendAdjacency appends node i's out-neighbours to dst (deterministic,
// skewed toward low node ids so degrees are non-uniform like real web/social
// graphs); there are at most 2*Degree-1, so a scan finds duplicates.
func (g GraphParams) appendAdjacency(dst []int, i int) []int {
	h := mix(uint64(i)*31 + uint64(g.Seed))
	deg := 1 + int(h%uint64(2*g.Degree-1)) // 1 .. 2*Degree-1
	start := len(dst)
	for j := 0; j < deg; j++ {
		h = mix(h + uint64(j))
		var nbr int
		if h%4 == 0 {
			// Skew: hub attachment to the low-id core.
			nbr = int(mix(h) % uint64(g.Nodes/16+1))
		} else {
			nbr = int(mix(h) % uint64(g.Nodes))
		}
		if nbr != i && !slices.Contains(dst[start:], nbr) {
			dst = append(dst, nbr)
		}
	}
	return dst
}

// writeState writes graph state lines (value per node) under prefix.
func writeState(clus *cluster.Cluster, prefix string, g GraphParams, value func(node int) string) {
	perChunk := (g.Nodes + g.Chunks - 1) / g.Chunks
	chunk := 0
	var buf []byte // reused: FS.Write copies it
	var adj []int
	for i := 0; i < g.Nodes; i++ {
		buf = strconv.AppendInt(buf, int64(i), 10)
		buf = append(append(append(buf, '\t'), value(i)...), '|')
		adj = g.appendAdjacency(adj[:0], i)
		for j, n := range adj {
			if j > 0 {
				buf = append(buf, ',')
			}
			buf = strconv.AppendInt(buf, int64(n), 10)
		}
		buf = append(buf, '\n')
		if (i+1)%perChunk == 0 || i == g.Nodes-1 {
			clus.FS.Write(fmt.Sprintf("pfs:%s/chunk-%05d", prefix, chunk), buf)
			buf = buf[:0]
			chunk++
		}
	}
}

// parseStateLine splits `node<TAB>value|adj` into views of v. adj is empty
// when the node has no out-links.
func parseStateLine(v []byte) (node, value, adj []byte, ok bool) {
	node, rest, hasTab := bytes.Cut(v, []byte{'\t'})
	value, adj, hasBar := bytes.Cut(rest, []byte{'|'})
	return node, value, adj, hasTab && hasBar
}

// eachNeighbour calls fn with every neighbour of an adjacency list, as views
// of it: none for an empty list, else what strings.Split(adj, ",") lists.
func eachNeighbour(adj []byte, fn func(n []byte)) {
	for more := len(adj) > 0; more; {
		var n []byte
		n, adj, more = bytes.Cut(adj, []byte{','})
		fn(n)
	}
}

// eachLine calls fn with every non-empty line of data, as views of it.
func eachLine(data []byte, fn func(line []byte)) {
	for len(data) > 0 {
		var line []byte
		line, data, _ = bytes.Cut(data, []byte{'\n'})
		if len(line) > 0 {
			fn(line)
		}
	}
}

// eachState calls fn with the node id and the value of every state line
// under prefix.
func eachState(clus *cluster.Cluster, prefix string, fn func(id int, value []byte)) {
	for _, path := range clus.PFS.List(prefix) {
		data, err := clus.PFS.Peek(path)
		if err != nil {
			continue
		}
		eachLine(data, func(line []byte) {
			node, value, _, ok := parseStateLine(line)
			if id, err := strconv.Atoi(string(node)); ok && err == nil {
				fn(id, value)
			}
		})
	}
}
