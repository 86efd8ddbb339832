package core

import (
	"fmt"

	"fraccascade/internal/cascade"
	"fraccascade/internal/catalog"
	"fraccascade/internal/parallel"
	"fraccascade/internal/tree"
)

// Branch is the outcome of the secondary comparison steering an implicit
// search.
type Branch int8

const (
	// Left selects the left child.
	Left Branch = iota
	// Right selects the right child.
	Right
)

func (b Branch) String() string {
	if b == Left {
		return "left"
	}
	return "right"
}

// BranchFunc is the paper's branch(q, find(y, v)) secondary comparison: it
// inspects the catalog entry found at a node and decides the branch. For
// the basic implicit search it must satisfy the consistency assumption of
// Section 2: at any node w left (right) of the search path it returns
// right (left), and at the path's leaf it returns left.
type BranchFunc func(r cascade.Result) Branch

// SearchImplicit performs a basic implicit cooperative search with p
// processors on a binary tree: the root-to-leaf path is discovered during
// the search via branch. It returns find(y, v) for every node on the
// discovered path, the leaf reached, and the simulated cost.
//
// Within each block the implementation evaluates find and branch at every
// block node (Section 2.3 assigns processors to all of U), then resolves
// the block-internal path from the internal nodes' branches; the
// consistency assumption makes the per-level right→left transition unique,
// which the CREW machine exploits to identify the path in O(1) — charged
// here as a constant number of steps.
func (st *Structure) SearchImplicit(y catalog.Key, branch BranchFunc, p int) ([]cascade.Result, tree.NodeID, Stats, error) {
	if st.t.MaxDegree() > 2 {
		return nil, tree.Nil, Stats{}, fmt.Errorf("core: implicit search requires a binary tree (degree %d)", st.t.MaxDegree())
	}
	if p < 1 {
		p = 1
	}
	si := st.SelectSub(p)
	sub := st.subs[si]
	stats := Stats{Sub: si, P: p}

	v := st.t.Root()
	rootCat := st.s.Aug(v)
	pos := rootCat.Succ(y)
	stats.RootRounds = parallel.CoopSearchSteps(rootCat.Len(), p)
	stats.Steps += stats.RootRounds
	results := []cascade.Result{st.s.ResultAt(v, pos)}

	for !st.t.IsLeaf(v) {
		block := sub.BlockAt(v)
		if block == nil || st.t.Depth(v) >= sub.TruncDepth {
			// Sequential: branch from the current result, then one bridge
			// descent.
			br := branch(results[len(results)-1])
			ci := 0
			if br == Right {
				ci = 1
			}
			ch := st.t.Children(v)
			if len(ch) != 2 {
				return nil, tree.Nil, stats, fmt.Errorf("core: node %d has %d children on an implicit path", v, len(ch))
			}
			pos, _ = st.s.Descend(y, v, ci, pos)
			v = ch[ci]
			results = append(results, st.s.ResultAt(v, pos))
			stats.SeqLevels++
			stats.Steps++
			continue
		}
		var err error
		v, pos, err = st.hopImplicit(sub, block, y, pos, branch, &results, &stats)
		if err != nil {
			return nil, tree.Nil, stats, err
		}
		stats.Hops++
		stats.Steps += implicitHopCostSteps
	}
	return results, v, stats, nil
}

// FindAllInBlock computes find(y, ·) positions for every node of the block
// (Section 2.3 assigns processors to all of U) from the true successor
// position pos at the block root, via the Lemma 3 window recurrence. It
// returns the per-local-node positions and the processor-slot demand.
// It is exported for searches with non-basic branch functions — point
// location builds its own hop on top of it. The positions are written into
// dst's backing array when it is large enough, so a caller reusing dst
// across hops allocates nothing; nil dst allocates.
func (st *Structure) FindAllInBlock(dst []int32, sub *Substructure, block *Block, y catalog.Key, pos int) ([]int32, int64, error) {
	j, offset := block.sampleFor(pos, sub.S)
	kp := block.KeyPos[j]

	findPos := dst[:0]
	if cap(findPos) < len(block.Nodes) {
		findPos = make([]int32, len(block.Nodes))
	}
	findPos = findPos[:len(block.Nodes)]
	findPos[0] = int32(pos)
	hopSlots := int64(sub.S)
	// Window slack per block level (identical recurrence for all nodes of
	// a level, seeded by the Step-2 sampling offset).
	lo := -offset
	curLevel := int8(0)
	for z := 1; z < len(block.Nodes); z++ {
		if block.Level[z] != curLevel {
			curLevel = block.Level[z]
			lo = st.params.WindowLo(lo)
		}
		anchor := int(kp[z])
		winLo, winHi := anchor+lo, anchor
		cat := st.s.Aug(block.Nodes[z])
		found := cat.SuccInWindow(y, winLo, winHi)
		if found > winHi {
			return nil, 0, fmt.Errorf("core: Lemma 3 window [%d,%d] missed find(y,%d) (y=%d)", winLo, winHi, block.Nodes[z], y)
		}
		findPos[z] = int32(found)
		width := winHi - max(0, winLo) + 1
		hopSlots += int64(width)
	}
	return findPos, hopSlots, nil
}

// hopImplicit evaluates find and branch over all nodes of the block,
// resolves the block-internal path, appends its results, and returns the
// exit node with its successor position.
func (st *Structure) hopImplicit(sub *Substructure, block *Block, y catalog.Key, pos int, branch BranchFunc, results *[]cascade.Result, stats *Stats) (tree.NodeID, int, error) {
	findPos, hopSlots, err := st.FindAllInBlock(nil, sub, block, y, pos)
	if err != nil {
		return tree.Nil, 0, err
	}
	stats.SlotsTotal += hopSlots
	if int(hopSlots) > stats.SlotsPeak {
		stats.SlotsPeak = int(hopSlots)
	}

	// Resolve the block-internal path from internal branches; collect
	// results along it. Also verify the consistency assumption's unique
	// right→left transition at each level (the basis of the O(1) CREW
	// identification).
	local := int32(0)
	for int(block.Level[local]) < block.Height {
		r := st.s.ResultAt(block.Nodes[local], int(findPos[local]))
		br := branch(r)
		ch := block.Children[local]
		if len(ch) != 2 {
			return tree.Nil, 0, fmt.Errorf("core: block node %d lacks two children", block.Nodes[local])
		}
		if br == Left {
			local = ch[0]
		} else {
			local = ch[1]
		}
		*results = append(*results, st.s.ResultAt(block.Nodes[local], int(findPos[local])))
	}
	return block.Nodes[local], int(findPos[local]), nil
}

// CheckConsistency evaluates branch over every node of the tree for the
// query (y, branch) and verifies the consistency assumption relative to
// the path the implicit search would take: nodes strictly left of the path
// must return Right, nodes strictly right must return Left. Tests use it
// to validate generated branch functions before trusting search results.
func (st *Structure) CheckConsistency(y catalog.Key, branch BranchFunc) error {
	if st.t.MaxDegree() > 2 {
		return fmt.Errorf("core: consistency check requires a binary tree")
	}
	// Reference path by sequential descent.
	v := st.t.Root()
	pos := st.s.Aug(v).Succ(y)
	onPath := map[tree.NodeID]bool{v: true}
	for !st.t.IsLeaf(v) {
		br := branch(st.s.ResultAt(v, pos))
		ci := 0
		if br == Right {
			ci = 1
		}
		pos, _ = st.s.Descend(y, v, ci, pos)
		v = st.t.Children(v)[ci]
		onPath[v] = true
	}
	inorder, err := st.t.InorderIndex()
	if err != nil {
		return err
	}
	pathLeafIdx := inorder[v]
	for w := tree.NodeID(0); int(w) < st.t.N(); w++ {
		if onPath[w] {
			continue
		}
		wPos := st.s.Aug(w).Succ(y)
		br := branch(st.s.ResultAt(w, wPos))
		if inorder[w] < pathLeafIdx && br != Right {
			return fmt.Errorf("core: node %d left of path branches %v", w, br)
		}
		if inorder[w] > pathLeafIdx && br != Left {
			return fmt.Errorf("core: node %d right of path branches %v", w, br)
		}
	}
	if branch(st.s.ResultAt(v, pos)) != Left {
		return fmt.Errorf("core: path leaf %d must branch left", v)
	}
	return nil
}
