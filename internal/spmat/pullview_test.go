package spmat

// The counting-sort pull builders the CSR slices of PullBlocks replaced,
// kept as the reference the kernel tests build their views with: a DCSC
// block's entries sorted by row, with column ids shifted by colOff to
// the global ids the kernels read.

// PullView builds the row-major view of a DCSC block by a counting sort
// of its entries by row. Column ids come out ascending within each row
// because JC is scanned in ascending order.
func (m *DCSC) PullView(colOff int64) *PullCSR {
	rowPtr := make([]int64, m.Rows+1)
	for _, r := range m.IR {
		rowPtr[r+1]++
	}
	for r := int64(0); r < m.Rows; r++ {
		rowPtr[r+1] += rowPtr[r]
	}
	adj := make([]uint32, len(m.IR))
	cursor := make([]int64, m.Rows)
	copy(cursor, rowPtr[:m.Rows])
	for j := range m.JC {
		c := uint32(colOff + m.JC[j])
		for _, r := range m.colRowsAt(j) {
			adj[cursor[r]] = c
			cursor[r]++
		}
	}
	return NewPullCSR(m.Rows, m.Cols, rowPtr, adj, LiveRows(rowPtr[:m.Rows], rowPtr[1:]))
}

// PullView builds the row-major views of every strip.
func (rs *RowSplit) PullView(colOff int64) *PullSplit {
	ps := &PullSplit{Offsets: rs.Offsets}
	ps.Strips = make([]*PullCSR, len(rs.Strips))
	for s, d := range rs.Strips {
		ps.Strips[s] = d.PullView(colOff)
	}
	return ps
}
