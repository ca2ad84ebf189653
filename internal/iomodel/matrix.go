package iomodel

import (
	"fmt"
	"math"
	"strings"
)

// Matrix is the discrete I/O performance matrix of the paper's Fig. 2c:
// aggregate PFS bandwidth sampled over a grid of node counts and per-node
// transfer sizes, queried with bilinear interpolation in log2 space.
// Sampling happens once at Model construction; the simulation reads it,
// and nothing writes it afterwards (the grid accessors return copies).
type Matrix struct {
	// nodeGrid and sizeGrid are the sample coordinates, ascending.
	nodeGrid []int     // powers of two, 1 .. maxNodes
	sizeGrid []float64 // GB per node, powers of two spanning the range
	// bw[i][j] is aggregate GB/s at nodeGrid[i], sizeGrid[j].
	bw [][]float64
}

// matrix grid bounds. The largest paper application (CHIMERA) runs on
// 2272 nodes with ~285 GB per node, comfortably inside the grid; queries
// beyond the grid clamp to the edge, mirroring how a measured matrix
// would be used.
const (
	matrixMaxNodes  = 4096
	matrixMinSizeGB = 1.0 / 1024 // 1 MiB-ish in GB terms
	matrixMaxSizeGB = 1024
)

// BuildMatrix samples the parametric weak-scaling surface for cfg into a
// discrete matrix, standing in for the paper's measurement campaign.
func BuildMatrix(cfg Config) *Matrix {
	m := &Matrix{}
	for n := 1; n <= matrixMaxNodes; n *= 2 {
		m.nodeGrid = append(m.nodeGrid, n)
	}
	for s := matrixMinSizeGB; s <= matrixMaxSizeGB*1.0001; s *= 2 {
		m.sizeGrid = append(m.sizeGrid, s)
	}
	m.bw = make([][]float64, len(m.nodeGrid))
	for i, n := range m.nodeGrid {
		row := make([]float64, len(m.sizeGrid))
		for j, s := range m.sizeGrid {
			row[j] = surfaceAggregate(cfg, n, s)
		}
		m.bw[i] = row
	}
	return m
}

// Nodes returns a copy of the node-count grid.
func (m *Matrix) Nodes() []int { return append([]int(nil), m.nodeGrid...) }

// Sizes returns a copy of the per-node transfer-size grid in GB.
func (m *Matrix) Sizes() []float64 { return append([]float64(nil), m.sizeGrid...) }

// At returns the sampled bandwidth at grid indices (i, j).
func (m *Matrix) At(i, j int) float64 { return m.bw[i][j] }

// Lookup returns the aggregate bandwidth for (nodes, perNodeGB) by
// bilinear interpolation on (log2 nodes, log2 size). Queries outside the
// grid clamp to the nearest edge.
func (m *Matrix) Lookup(nodes int, perNodeGB float64) float64 {
	if nodes <= 0 || perNodeGB <= 0 {
		return 0
	}
	xi, xf := m.locateNode(nodes)
	yi, yf := m.locateSize(perNodeGB)
	b00 := m.bw[xi][yi]
	b01 := m.bw[xi][yi+1]
	b10 := m.bw[xi+1][yi]
	b11 := m.bw[xi+1][yi+1]
	return (b00*(1-xf)+b10*xf)*(1-yf) + (b01*(1-xf)+b11*xf)*yf
}

// locateNode returns the lower grid index and the interpolation fraction
// for a node count, clamped to the grid.
func (m *Matrix) locateNode(nodes int) (int, float64) {
	lx := math.Log2(float64(nodes))
	if lx <= 0 {
		return 0, 0
	}
	maxIdx := len(m.nodeGrid) - 2
	i := int(lx)
	if i > maxIdx {
		return maxIdx, 1
	}
	return i, lx - float64(i)
}

// locateSize returns the lower grid index and fraction for a per-node
// size, clamped to the grid.
func (m *Matrix) locateSize(sizeGB float64) (int, float64) {
	l := math.Log2(sizeGB / m.sizeGrid[0])
	if l <= 0 {
		return 0, 0
	}
	maxIdx := len(m.sizeGrid) - 2
	i := int(l)
	if i > maxIdx {
		return maxIdx, 1
	}
	return i, l - float64(i)
}

// Render returns the matrix as an ASCII heat-map-style table (nodes down,
// sizes across), the Fig. 2c presentation.
func (m *Matrix) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s", "nodes\\GB")
	for _, s := range m.sizeGrid {
		fmt.Fprintf(&b, " %8s", sizeLabel(s))
	}
	b.WriteByte('\n')
	for i, n := range m.nodeGrid {
		fmt.Fprintf(&b, "%-8d", n)
		for j := range m.sizeGrid {
			fmt.Fprintf(&b, " %8.1f", m.bw[i][j])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func sizeLabel(gb float64) string {
	switch {
	case gb >= 1:
		return fmt.Sprintf("%.0fG", gb)
	default:
		return fmt.Sprintf("%.0fM", gb*1024)
	}
}
