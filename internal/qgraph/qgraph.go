// Package qgraph provides the small undirected-graph toolkit used to build
// device crosstalk graphs and to solve the constrained coloring problem at
// the heart of the CA-DD pass (paper Algorithm 1 / Fig. 5): idle qubits must
// receive colors (Walsh sequence indices) such that no two crosstalk-coupled
// qubits share a color, subject to pre-assigned colors on gate qubits.
package qgraph

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
)

// Graph is an undirected graph on nodes 0..N-1 with an adjacency set.
type Graph struct {
	N   int
	adj []map[int]bool
}

// New returns an empty graph on n nodes.
func New(n int) *Graph {
	g := &Graph{N: n, adj: make([]map[int]bool, n)}
	for i := range g.adj {
		g.adj[i] = make(map[int]bool)
	}
	return g
}

// AddEdge inserts the undirected edge (a, b). Self-loops are rejected.
func (g *Graph) AddEdge(a, b int) {
	if a == b {
		panic(fmt.Sprintf("qgraph: self-loop on node %d", a))
	}
	if a < 0 || a >= g.N || b < 0 || b >= g.N {
		panic(fmt.Sprintf("qgraph: edge (%d,%d) out of range [0,%d)", a, b, g.N))
	}
	g.adj[a][b] = true
	g.adj[b][a] = true
}

// HasEdge reports whether (a, b) is an edge.
func (g *Graph) HasEdge(a, b int) bool {
	if a < 0 || a >= g.N || b < 0 || b >= g.N {
		return false
	}
	return g.adj[a][b]
}

// Neighbors returns the sorted neighbor list of node a.
func (g *Graph) Neighbors(a int) []int {
	out := make([]int, 0, len(g.adj[a]))
	for b := range g.adj[a] {
		out = append(out, b)
	}
	sort.Ints(out)
	return out
}

// Degree returns the number of neighbors of a.
func (g *Graph) Degree(a int) int { return len(g.adj[a]) }

// Edges returns all edges (a < b), sorted.
func (g *Graph) Edges() [][2]int {
	var out [][2]int
	for a := 0; a < g.N; a++ {
		for b := range g.adj[a] {
			if a < b {
				out = append(out, [2]int{a, b})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// IsBipartite reports whether the graph is 2-colorable.
func (g *Graph) IsBipartite() bool {
	color := make([]int, g.N)
	for i := range color {
		color[i] = -1
	}
	for s := 0; s < g.N; s++ {
		if color[s] != -1 {
			continue
		}
		color[s] = 0
		queue := []int{s}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for v := range g.adj[u] {
				if color[v] == -1 {
					color[v] = 1 - color[u]
					queue = append(queue, v)
				} else if color[v] == color[u] {
					return false
				}
			}
		}
	}
	return true
}

// Components returns the connected components, each as a sorted node list,
// ordered by smallest member.
func (g *Graph) Components() [][]int {
	seen := make([]bool, g.N)
	var comps [][]int
	for s := 0; s < g.N; s++ {
		if seen[s] {
			continue
		}
		var comp []int
		queue := []int{s}
		seen[s] = true
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			comp = append(comp, u)
			for v := range g.adj[u] {
				if !seen[v] {
					seen[v] = true
					queue = append(queue, v)
				}
			}
		}
		sort.Ints(comp)
		comps = append(comps, comp)
	}
	return comps
}

// Subgraph returns the induced subgraph on the given nodes, along with the
// mapping from new node index to original node id.
func (g *Graph) Subgraph(nodes []int) (*Graph, []int) {
	idx := make(map[int]int, len(nodes))
	order := append([]int(nil), nodes...)
	sort.Ints(order)
	for i, n := range order {
		idx[n] = i
	}
	s := New(len(order))
	for i, n := range order {
		for b := range g.adj[n] {
			if j, ok := idx[b]; ok && i < j {
				s.AddEdge(i, j)
			}
		}
	}
	return s, order
}

// Distances returns the BFS hop distance from src to every node; -1 marks
// nodes unreachable from src. Used by the correlation-spectroscopy figures
// to bin qubit pairs by coupling-graph distance.
func (g *Graph) Distances(src int) []int {
	dist := make([]int, g.N)
	for i := range dist {
		dist[i] = -1
	}
	if src < 0 || src >= g.N {
		return dist
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for v := range g.adj[u] {
			if dist[v] == -1 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// AllDistances returns the full pairwise hop-distance matrix (one BFS per
// node; -1 for unreachable pairs).
func (g *Graph) AllDistances() [][]int {
	out := make([][]int, g.N)
	for i := range out {
		out[i] = g.Distances(i)
	}
	return out
}

// Coloring assigns a color index (>= 0) to each node by index; Uncolored
// marks a node without a color.
type Coloring []int

// Uncolored marks a node without a color in a Coloring.
const Uncolored = -1

// NewColoring returns a coloring of n nodes, all uncolored.
func NewColoring(n int) Coloring {
	c := make(Coloring, n)
	c.Reset()
	return c
}

// Reset uncolors every node.
func (c Coloring) Reset() {
	for i := range c {
		c[i] = Uncolored
	}
}

// GreedyColor colors the nodes in `order`, in place in c, subject to: (a)
// nodes c already colors (pre-assigned colors) keep their color; (b)
// adjacent nodes (in g) never share a color; (c) bit k of forbid[node] bars
// color k from that node (forbid may be nil; colors >= 64 cannot be
// barred). It picks the smallest admissible color (minimizing the Walsh
// hierarchy level, per the paper's heuristic). c must cover every node of
// g.
func GreedyColor(g *Graph, order []int, c Coloring, forbid []uint64) {
	for _, n := range order {
		if c[n] >= 0 {
			continue
		}
		var used uint64
		if forbid != nil {
			used = forbid[n]
		}
		for b := range g.adj[n] {
			if col := c[b]; col >= 0 && col < 64 {
				used |= 1 << col
			}
		}
		col := bits.TrailingZeros64(^used)
		if col == 64 {
			// Colors 0..63 are all taken around n: probe upward.
			for c.neighborHas(g, n, col) {
				col++
			}
		}
		c[n] = col
	}
}

// neighborHas reports whether a neighbor of n has color col.
func (c Coloring) neighborHas(g *Graph, n, col int) bool {
	for b := range g.adj[n] {
		if c[b] == col {
			return true
		}
	}
	return false
}

// Conflict returns the smallest neighbor of n that shares n's color, or -1
// when n is uncolored or no neighbor shares its color.
func (c Coloring) Conflict(g *Graph, n int) int {
	col, bad := c[n], -1
	if col < 0 {
		return -1
	}
	for b := range g.adj[n] {
		if c[b] == col && (bad < 0 || b < bad) {
			bad = b
		}
	}
	return bad
}

// ValidateColoring checks that no edge of g connects same-colored nodes
// among the colored nodes, returning the first violating edge if any.
func ValidateColoring(g *Graph, c Coloring) (ok bool, bad [2]int) {
	for _, e := range g.Edges() {
		if ca := c[e[0]]; ca >= 0 && ca == c[e[1]] {
			return false, e
		}
	}
	return true, [2]int{-1, -1}
}

// MaxColor returns the largest color index used, or -1 for an empty
// coloring.
func (c Coloring) MaxColor() int {
	m := -1
	for _, col := range c {
		if col > m {
			m = col
		}
	}
	return m
}

// DegreeOrder returns nodes sorted by decreasing degree (a common greedy
// coloring heuristic), restricted to the provided subset.
func DegreeOrder(g *Graph, subset []int) []int {
	out := append([]int(nil), subset...)
	slices.SortFunc(out, func(a, b int) int {
		if da, db := g.Degree(a), g.Degree(b); da != db {
			return db - da
		}
		return a - b
	})
	return out
}
