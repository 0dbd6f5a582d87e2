package datagen

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"repro/internal/graph"
	"repro/internal/tensor"
)

// Dataset serialization: a stable little-endian binary layout so generated
// datasets can be produced once and shared across runs/machines (RMAT
// generation of multi-million-edge graphs is the slowest part of a cold
// start). Layout: magic, version, spec, CSR arrays, features, labels, split.
const (
	datasetMagic   = 0x48594453 // "HYDS"
	datasetVersion = 1
)

// Save writes the dataset.
func (d *Dataset) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	le := binary.LittleEndian
	hdr := []uint64{datasetMagic, datasetVersion,
		uint64(d.Spec.NumVertices), uint64(d.Spec.NumEdges),
		uint64(d.Spec.TrainNodes), uint64(len(d.Spec.FeatDims)),
		uint64(len(d.Spec.Name))}
	for _, v := range hdr {
		if err := binary.Write(bw, le, v); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString(d.Spec.Name); err != nil {
		return err
	}
	for _, f := range d.Spec.FeatDims {
		if err := binary.Write(bw, le, uint32(f)); err != nil {
			return err
		}
	}
	if err := binary.Write(bw, le, uint64(d.Graph.NumVertices)); err != nil {
		return err
	}
	if err := binary.Write(bw, le, d.Graph.RowPtr); err != nil {
		return err
	}
	if err := binary.Write(bw, le, uint64(len(d.Graph.ColIdx))); err != nil {
		return err
	}
	if err := binary.Write(bw, le, d.Graph.ColIdx); err != nil {
		return err
	}
	if err := binary.Write(bw, le, d.Features.Data); err != nil {
		return err
	}
	if err := binary.Write(bw, le, d.Labels); err != nil {
		return err
	}
	if err := binary.Write(bw, le, uint64(len(d.TrainIdx))); err != nil {
		return err
	}
	if err := binary.Write(bw, le, d.TrainIdx); err != nil {
		return err
	}
	return bw.Flush()
}

// LoadDataset reads a dataset written by Save. Malformed or truncated input
// is reported as an error: every count in the stream is checked against the
// header before use, and the arrays are read in bounded chunks, so a stream
// that ends early fails before any allocation larger than the data it held.
func LoadDataset(r io.Reader) (*Dataset, error) {
	br := bufio.NewReader(r)
	le := binary.LittleEndian
	var magic, version, nv, ne, train, nDims, nameLen uint64
	for _, p := range []*uint64{&magic, &version, &nv, &ne, &train, &nDims, &nameLen} {
		if err := binary.Read(br, le, p); err != nil {
			return nil, err
		}
	}
	if magic != datasetMagic {
		return nil, fmt.Errorf("datagen: not a dataset file (magic %#x)", magic)
	}
	if version != datasetVersion {
		return nil, fmt.Errorf("datagen: dataset version %d, want %d", version, datasetVersion)
	}
	if nv > 1<<34 || nDims < 1 || nDims > 64 || nameLen > 4096 {
		return nil, fmt.Errorf("datagen: implausible header (V=%d dims=%d name=%d)", nv, nDims, nameLen)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(br, name); err != nil {
		return nil, err
	}
	dims := make([]int, nDims)
	for i := range dims {
		var f uint32
		if err := binary.Read(br, le, &f); err != nil {
			return nil, err
		}
		if f < 1 || f > maxFeatDim {
			return nil, fmt.Errorf("datagen: feature dimension %d outside [1, %d]", f, maxFeatDim)
		}
		dims[i] = int(f)
	}
	spec := Spec{Name: string(name), NumVertices: int64(nv), NumEdges: int64(ne),
		TrainNodes: int64(train), FeatDims: dims}

	var gv uint64
	if err := binary.Read(br, le, &gv); err != nil {
		return nil, err
	}
	if gv != nv {
		return nil, fmt.Errorf("datagen: graph has %d vertices, header says %d", gv, nv)
	}
	rowPtr, err := readChunked[int64](br, gv+1)
	if err != nil {
		return nil, err
	}
	var nCol uint64
	if err := binary.Read(br, le, &nCol); err != nil {
		return nil, err
	}
	// Materialize tops up in-degrees after drawing NumEdges edges, so the
	// stored edge count is RowPtr's end, not the header's NumEdges.
	if end := rowPtr[gv]; end < 0 || uint64(end) != nCol {
		return nil, fmt.Errorf("datagen: %d column indices, RowPtr ends at %d", nCol, end)
	}
	colIdx, err := readChunked[int32](br, nCol)
	if err != nil {
		return nil, err
	}
	g := &graph.Graph{NumVertices: int(gv), RowPtr: rowPtr, ColIdx: colIdx}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("datagen: corrupt graph in dataset: %w", err)
	}
	featData, err := readChunked[float32](br, gv*uint64(dims[0]))
	if err != nil {
		return nil, err
	}
	features := tensor.FromSlice(int(gv), dims[0], featData)
	labels, err := readChunked[int32](br, gv)
	if err != nil {
		return nil, err
	}
	var nTrain uint64
	if err := binary.Read(br, le, &nTrain); err != nil {
		return nil, err
	}
	if nTrain > gv {
		return nil, fmt.Errorf("datagen: %d train indices for %d vertices", nTrain, gv)
	}
	trainIdx, err := readChunked[int32](br, nTrain)
	if err != nil {
		return nil, err
	}
	return &Dataset{Spec: spec, Graph: g, Features: features, Labels: labels, TrainIdx: trainIdx}, nil
}

// maxFeatDim bounds each stored feature dimension, so the feature count
// V·dims[0] cannot overflow for any V the header admits (V ≤ 2^34).
const maxFeatDim = 1 << 24

// readChunkElems is how many elements readChunked reads per step.
const readChunkElems = 1 << 16

// readChunked reads n little-endian values, growing the result one chunk
// at a time, so a count larger than the stream holds fails at EOF having
// allocated about twice what was read plus one chunk, not n values.
func readChunked[T int32 | int64 | float32](r io.Reader, n uint64) ([]T, error) {
	var out []T
	for uint64(len(out)) < n {
		k := n - uint64(len(out))
		if k > readChunkElems {
			k = readChunkElems
		}
		lo := len(out)
		out = slices.Grow(out, int(k))[:lo+int(k)]
		if err := binary.Read(r, binary.LittleEndian, out[lo:]); err != nil {
			return nil, err
		}
	}
	return out, nil
}
