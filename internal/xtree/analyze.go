package xtree

import "fmt"

// Analysis summarizes the structural quality of a tree — the criteria
// the X-tree paper evaluates its splits by: storage utilization, directory
// overlap, and the extent of supernodes.
type Analysis struct {
	// Height is the number of levels.
	Height int
	// DirNodes and LeafNodes count the nodes of each kind.
	DirNodes, LeafNodes int
	// Supernodes counts nodes with a multiplier above 1; SuperBlocks is
	// the total number of extra blocks they occupy.
	Supernodes, SuperBlocks int
	// LeafFill is the average leaf fill grade relative to the leaf
	// capacity (at most 1: leaves are never supernodes).
	LeafFill float64
	// DirFill is the average directory fill grade relative to the base
	// directory capacity.
	DirFill float64
	// MeanDirOverlap is the mean pairwise overlap ratio
	// (intersection/union volume) between sibling directory children,
	// averaged over directory nodes with at least two children.
	MeanDirOverlap float64
}

// String renders the analysis on one line for reports.
func (a Analysis) String() string {
	return fmt.Sprintf(
		"height %d, %d dirs (fill %.2f, overlap %.3f), %d leaves (fill %.2f), %d supernodes (+%d blocks)",
		a.Height, a.DirNodes, a.DirFill, a.MeanDirOverlap,
		a.LeafNodes, a.LeafFill, a.Supernodes, a.SuperBlocks)
}

// Analyze computes the structural quality metrics of the tree.
func (t *Tree) Analyze() Analysis {
	a := Analysis{Height: t.Height()}
	if t.root == nil {
		return a
	}
	var leafFillSum, dirFillSum, overlapSum float64
	overlapNodes := 0

	var walk func(n *Node)
	walk = func(n *Node) {
		if n.super > 1 {
			a.Supernodes++
			a.SuperBlocks += int(n.super) - 1
		}
		if n.leaf {
			a.LeafNodes++
			leafFillSum += float64(len(n.ids)) / float64(t.cfg.LeafCapacity)
			return
		}
		a.DirNodes++
		dirFillSum += float64(len(n.children)) / float64(t.cfg.DirCapacity)
		if len(n.children) >= 2 {
			pairSum, pairs := 0.0, 0
			for i := 0; i < len(n.children); i++ {
				for j := i + 1; j < len(n.children); j++ {
					pairSum += overlapRatio(n.children[i].rect, n.children[j].rect)
					pairs++
				}
			}
			overlapSum += pairSum / float64(pairs)
			overlapNodes++
		}
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(t.root)

	if a.LeafNodes > 0 {
		a.LeafFill = leafFillSum / float64(a.LeafNodes)
	}
	if a.DirNodes > 0 {
		a.DirFill = dirFillSum / float64(a.DirNodes)
	}
	if overlapNodes > 0 {
		a.MeanDirOverlap = overlapSum / float64(overlapNodes)
	}
	return a
}
