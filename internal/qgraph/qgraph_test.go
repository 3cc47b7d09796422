package qgraph

import (
	"testing"
	"testing/quick"
)

func line(n int) *Graph {
	g := New(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	return g
}

func TestEdgesAndNeighbors(t *testing.T) {
	g := line(4)
	if !g.HasEdge(1, 2) || g.HasEdge(0, 2) {
		t.Error("edge membership wrong")
	}
	nb := g.Neighbors(1)
	if len(nb) != 2 || nb[0] != 0 || nb[1] != 2 {
		t.Errorf("neighbors(1) = %v", nb)
	}
	if g.Degree(0) != 1 || g.Degree(1) != 2 {
		t.Error("degrees wrong")
	}
	if len(g.Edges()) != 3 {
		t.Error("edge count wrong")
	}
}

func TestBipartite(t *testing.T) {
	if !line(5).IsBipartite() {
		t.Error("path should be bipartite")
	}
	tri := New(3)
	tri.AddEdge(0, 1)
	tri.AddEdge(1, 2)
	tri.AddEdge(0, 2)
	if tri.IsBipartite() {
		t.Error("triangle should not be bipartite")
	}
	// Even cycles are bipartite, odd are not.
	c6 := New(6)
	for i := 0; i < 6; i++ {
		c6.AddEdge(i, (i+1)%6)
	}
	if !c6.IsBipartite() {
		t.Error("C6 should be bipartite")
	}
}

func TestComponents(t *testing.T) {
	g := New(5)
	g.AddEdge(0, 1)
	g.AddEdge(3, 4)
	comps := g.Components()
	if len(comps) != 3 {
		t.Fatalf("components: %v", comps)
	}
	if len(comps[0]) != 2 || comps[1][0] != 2 {
		t.Errorf("components: %v", comps)
	}
}

func TestSubgraph(t *testing.T) {
	g := line(5)
	s, order := g.Subgraph([]int{1, 2, 4})
	if s.N != 3 || len(order) != 3 {
		t.Fatal("subgraph shape wrong")
	}
	// 1-2 adjacent (mapped to 0-1); 4 isolated.
	if !s.HasEdge(0, 1) || s.Degree(2) != 0 {
		t.Errorf("subgraph edges wrong: %v", s.Edges())
	}
}

func TestGreedyColorRespectsConstraints(t *testing.T) {
	g := line(6)
	c := NewColoring(6)
	c[2] = 1                             // pin node 2 to color 1
	forbid := []uint64{1, 1, 0, 1, 1, 1} // color 0 barred everywhere but node 2
	GreedyColor(g, []int{0, 1, 3, 4, 5}, c, forbid)
	if c[2] != 1 {
		t.Error("fixed color changed")
	}
	for n := 0; n < 6; n++ {
		if n != 2 && c[n] == 0 {
			t.Errorf("forbidden color used on %d", n)
		}
	}
	if ok, bad := ValidateColoring(g, c); !ok {
		t.Errorf("invalid coloring on edge %v: %v", bad, c)
	}
}

func TestGreedyColorProperty(t *testing.T) {
	// On random graphs, greedy coloring (no fixed, no forbidden) is always
	// valid and uses at most maxDegree+1 colors.
	f := func(seed int64) bool {
		n := 8
		g := New(n)
		s := seed
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				s = s*6364136223846793005 + 1442695040888963407
				if (s>>33)&3 == 0 {
					g.AddEdge(i, j)
				}
			}
		}
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		c := NewColoring(n)
		GreedyColor(g, order, c, nil)
		if ok, _ := ValidateColoring(g, c); !ok {
			return false
		}
		maxDeg := 0
		for i := 0; i < n; i++ {
			if d := g.Degree(i); d > maxDeg {
				maxDeg = d
			}
		}
		return c.MaxColor() <= maxDeg
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestGreedyColorSmallestAdmissible checks the greedy choice against a
// direct search for the smallest color no neighbor holds and forbid does
// not bar, including past the 64 colors a mask word covers: on a complete
// graph every node needs its own color.
func TestGreedyColorSmallestAdmissible(t *testing.T) {
	for _, n := range []int{5, 64, 65, 130} {
		g := New(n)
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				g.AddEdge(a, b)
			}
		}
		c := NewColoring(n)
		c[n-1] = 70 // pinned above the mask word
		forbid := make([]uint64, n)
		forbid[3] = 1<<4 | 1<<5
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		want := NewColoring(n)
		want[n-1] = 70
		for _, v := range order {
			if want[v] >= 0 {
				continue
			}
			col := 0
			for {
				free := col >= 64 || forbid[v]&(1<<col) == 0
				for b := 0; b < n && free; b++ {
					free = b == v || want[b] != col
				}
				if free {
					break
				}
				col++
			}
			want[v] = col
		}
		GreedyColor(g, order, c, forbid)
		for v := range c {
			if c[v] != want[v] {
				t.Fatalf("K%d: node %d got color %d, smallest admissible is %d", n, v, c[v], want[v])
			}
		}
		if ok, bad := ValidateColoring(g, c); !ok {
			t.Fatalf("K%d: invalid coloring at %v", n, bad)
		}
	}
}

func TestDegreeOrder(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(1, 3)
	order := DegreeOrder(g, []int{0, 1, 2, 3})
	if order[0] != 1 {
		t.Errorf("highest-degree node should come first: %v", order)
	}
}

func TestValidateColoringDetectsConflict(t *testing.T) {
	g := line(3)
	bad := Coloring{1, 1, Uncolored}
	if ok, edge := ValidateColoring(g, bad); ok || edge != [2]int{0, 1} {
		t.Error("conflict not detected")
	}
}

func TestDistances(t *testing.T) {
	// Line 0-1-2-3 plus an isolated node 4.
	g := New(5)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	want := []int{0, 1, 2, 3, -1}
	got := g.Distances(0)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Distances(0) = %v, want %v", got, want)
		}
	}
	if d := g.Distances(-1); d[0] != -1 {
		t.Errorf("out-of-range source should mark everything unreachable: %v", d)
	}
	all := g.AllDistances()
	for i := 0; i < g.N; i++ {
		if all[i][i] != 0 {
			t.Errorf("AllDistances()[%d][%d] = %d, want 0", i, i, all[i][i])
		}
		for j := 0; j < g.N; j++ {
			if all[i][j] != all[j][i] {
				t.Errorf("distance matrix not symmetric at (%d,%d)", i, j)
			}
		}
	}
	if all[1][3] != 2 || all[4][2] != -1 {
		t.Errorf("unexpected AllDistances: %v", all)
	}
}
