package pointloc

import (
	"math/rand"
	"testing"

	"fraccascade/internal/core"
	"fraccascade/internal/geom"
)

// TestFig6BranchConsistencyWithinBlock reproduces Figure 6: the branch
// function computed by the Section 3.1 hop (active discriminations plus
// the Step-5 max(e_L) rule at inactive nodes) satisfies the consistency
// assumption *within the block*: at every block level, nodes left of the
// search path branch right and nodes right of it branch left, so the
// right→left transition identifies the path — the property the paper's
// natural branch function (Fig. 5) lacks.
func TestFig6BranchConsistencyWithinBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 15; trial++ {
		s := mustGen(t, 64+rng.Intn(128), 10+rng.Intn(20), rng)
		l, err := Build(s, core.Config{
			MaxSubs:      1,
			NoTruncation: true,
			HOverride:    func(int) int { return 3 },
		})
		if err != nil {
			t.Fatal(err)
		}
		sub := l.st.Substructure(0)
		inorder, err := l.t.InorderIndex()
		if err != nil {
			t.Fatal(err)
		}
		for q := 0; q < 20; q++ {
			pt, region := s.RandomInteriorPoint(rng)
			// Root block hop, instrumented.
			block := sub.BlockAt(l.t.Root())
			if block == nil {
				t.Fatal("no root block")
			}
			pos := l.st.Cascade().Aug(l.t.Root()).Succ(pt.Y)
			findPos, _, err := l.st.FindAllInBlock(nil, sub, block, pt.Y, pos)
			if err != nil {
				t.Fatal(err)
			}
			lr := l.initLR()
			n := len(block.Nodes)
			branchRight := make([]bool, n)
			decided := make([]bool, n)
			for z := 0; z < n; z++ {
				node := block.Nodes[z]
				if l.t.IsLeaf(node) {
					continue
				}
				k, payload := l.st.Cascade().Aug(node).NativeResult(int(findPos[z]))
				nf := l.classify(coreResult{Key: k, Payload: payload}, pt.Y)
				if !nf.active {
					continue
				}
				branchRight[z] = geom.SideOf(pt, nf.edge.Seg) >= 0
				decided[z] = true
				if branchRight[z] {
					if nf.edge.MaxSep() > lr.maxEL {
						lr.maxEL = nf.edge.MaxSep()
					}
				} else if nf.edge.MinSep() < lr.minER {
					lr.minER = nf.edge.MinSep()
				}
			}
			for z := 0; z < n; z++ {
				node := block.Nodes[z]
				if decided[z] || l.t.IsLeaf(node) {
					continue
				}
				branchRight[z] = l.sep[node] <= lr.maxEL
			}
			// The true leaf's inorder position: region leaves sit at
			// inorder 2(r−1).
			leafInorder := int32(2 * (region - 1))
			// Consistency within the block: every internal block node
			// strictly left of the path branches right; strictly right
			// branches left. Nodes on the path (ancestors of the region
			// leaf) are exempt — their branch is the path direction.
			for z := 0; z < n; z++ {
				node := block.Nodes[z]
				if l.t.IsLeaf(node) {
					continue
				}
				// Ancestor of the leaf? Then on the path.
				onPath := false
				lo, hi, err := l.t.SubtreeSpan()
				if err != nil {
					t.Fatal(err)
				}
				leafRank := int32(region - 1)
				if lo[node] <= leafRank && leafRank < hi[node] {
					onPath = true
				}
				if onPath {
					continue
				}
				wantRight := inorder[node] < leafInorder
				if branchRight[z] != wantRight {
					t.Fatalf("trial %d query %v (r_%d): block node sigma_%d branch=%v violates consistency (want right=%v)",
						trial, pt, region, l.sep[node], branchRight[z], wantRight)
				}
			}
		}
	}
}
