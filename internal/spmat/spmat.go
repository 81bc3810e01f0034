// Package spmat implements the sparse-matrix storage and the sparse
// matrix-sparse vector product (SpMSV) at the heart of the 2D BFS
// (Algorithm 3). Blocks are stored as DCSC, doubly-compressed sparse
// columns (Buluç & Gilbert 2008): O(nzc + nnz) storage, where nzc is the
// number of nonempty columns. This is the paper's choice for the
// hypersparse blocks that arise from 2D partitioning, where a classic
// CSC column-pointer array per block would cost O(n·√p + m) aggregate
// instead of O(m) (Section 4.1).
//
// Matrices here are boolean (pattern-only): an entry (r,c) means "column
// vertex c has an edge to row vertex r" in the pre-transposed adjacency
// convention of the paper, so SpMSV with a frontier over columns yields
// the next frontier over rows.
//
// The bottom-up phase reads the same graph row-major through PullCSR
// views, which slice a graph.CSR instead of copying it: the 1D driver
// wraps its rank's rows, and PullBlocks cuts each row of the 2D
// in-adjacency at the column-block boundaries, so the blocks are stored
// once, as DCSC, as the paper stores them.
//
// Index widths: the ids every kernel streams are uint32. DCSC.IR is
// block-local, so a block may have at most MaxBlockDim rows and
// columns. A PullCSR reads graph.CSR.Adj, whose ids are global. Offsets
// (CP, and a PullCSR's Beg and End), the nonempty column list JC, which
// joins against int64 frontiers, and every vector and global id handed
// across an API stay int64.
package spmat

import (
	"fmt"
	"sort"
)

// Triple is a matrix nonzero at (Row, Col).
type Triple struct {
	Row, Col int64
}

// MaxBlockDim is the most rows or columns a DCSC block may have: its
// local ids are stored as uint32.
const MaxBlockDim = 1 << 32

// CheckBlockDims returns an error naming the shape when a rows × cols
// block would hold local ids that do not fit in uint32.
func CheckBlockDims(rows, cols int64) error {
	if rows > MaxBlockDim || cols > MaxBlockDim {
		return fmt.Errorf("spmat: %dx%d block exceeds %d rows or columns, the uint32 local-id limit",
			rows, cols, int64(MaxBlockDim))
	}
	return nil
}

// DCSC is a doubly-compressed sparse column pattern matrix: JC lists the
// nonempty columns (sorted), CP[i]:CP[i+1] brackets the rows of column
// JC[i] within IR.
type DCSC struct {
	Rows, Cols int64
	JC         []int64  // nonempty column ids, sorted, len nzc
	CP         []int64  // len nzc+1
	IR         []uint32 // row ids, len nnz, sorted within each column
}

// NewDCSC builds a DCSC from triples. Duplicate entries are collapsed.
func NewDCSC(rows, cols int64, ts []Triple) (*DCSC, error) {
	if err := CheckBlockDims(rows, cols); err != nil {
		return nil, err
	}
	if err := checkTriples(rows, cols, ts); err != nil {
		return nil, err
	}
	sortTriples(ts)
	m := &DCSC{Rows: rows, Cols: cols}
	for i, t := range ts {
		if i > 0 && t == ts[i-1] {
			continue
		}
		if len(m.JC) == 0 || m.JC[len(m.JC)-1] != t.Col {
			m.JC = append(m.JC, t.Col)
			m.CP = append(m.CP, int64(len(m.IR)))
		}
		m.IR = append(m.IR, uint32(t.Row))
	}
	m.CP = append(m.CP, int64(len(m.IR)))
	return m, nil
}

// NNZ returns the number of stored nonzeros.
func (m *DCSC) NNZ() int64 { return int64(len(m.IR)) }

// colRowsAt returns the row indices of the j-th nonempty column.
func (m *DCSC) colRowsAt(j int) []uint32 {
	return m.IR[m.CP[j]:m.CP[j+1]]
}

func checkTriples(rows, cols int64, ts []Triple) error {
	if rows < 0 || cols < 0 {
		return fmt.Errorf("spmat: negative dimensions %dx%d", rows, cols)
	}
	for _, t := range ts {
		if t.Row < 0 || t.Row >= rows || t.Col < 0 || t.Col >= cols {
			return fmt.Errorf("spmat: entry (%d,%d) outside %dx%d", t.Row, t.Col, rows, cols)
		}
	}
	return nil
}

func sortTriples(ts []Triple) {
	sort.Slice(ts, func(i, j int) bool {
		if ts[i].Col != ts[j].Col {
			return ts[i].Col < ts[j].Col
		}
		return ts[i].Row < ts[j].Row
	})
}
