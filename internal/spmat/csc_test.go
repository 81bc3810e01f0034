package spmat

import "repro/internal/spvec"

// The CSC below is the tests' oracle for the DCSC kernels: classic
// compressed sparse columns, O(ncols + nnz) storage.

// CSC is a compressed sparse column pattern matrix.
type CSC struct {
	Rows, Cols int64
	ColPtr     []int64 // len Cols+1
	RowInd     []int64 // len nnz, sorted within each column
}

// NewCSC builds a CSC from triples. Duplicate entries are collapsed.
func NewCSC(rows, cols int64, ts []Triple) (*CSC, error) {
	if err := checkTriples(rows, cols, ts); err != nil {
		return nil, err
	}
	sortTriples(ts)
	colPtr := make([]int64, cols+1)
	rowInd := make([]int64, 0, len(ts))
	for i, t := range ts {
		if i > 0 && t == ts[i-1] {
			continue
		}
		colPtr[t.Col+1]++
		rowInd = append(rowInd, t.Row)
	}
	for c := int64(0); c < cols; c++ {
		colPtr[c+1] += colPtr[c]
	}
	return &CSC{Rows: rows, Cols: cols, ColPtr: colPtr, RowInd: rowInd}, nil
}

// NNZ returns the number of stored nonzeros.
func (m *CSC) NNZ() int64 { return int64(len(m.RowInd)) }

// ColRows returns the sorted row indices of column c.
func (m *CSC) ColRows(c int64) []int64 {
	return m.RowInd[m.ColPtr[c]:m.ColPtr[c+1]]
}

// SpMSV computes dst = M ⊗ f for a CSC matrix.
func (m *CSC) SpMSV(dst *spvec.Vec, f *spvec.Vec) *spvec.Vec {
	spa := spvec.NewSPA(m.Rows)
	for i, c := range f.Ind {
		for _, r := range m.ColRows(c) {
			spa.Scatter(r, f.Val[i])
		}
	}
	return spa.Extract(dst)
}

// StorageBytes returns the bytes the structure's arrays occupy at their
// element widths.
func (m *DCSC) StorageBytes() int64 {
	return 8*int64(len(m.JC)+len(m.CP)) + 4*int64(len(m.IR))
}

// StorageBytes returns the bytes of the CSC structure's arrays.
func (m *CSC) StorageBytes() int64 {
	return 8 * int64(len(m.ColPtr)+len(m.RowInd))
}
