package datagen

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"repro/internal/tensor"
)

func TestDatasetSaveLoadRoundTrip(t *testing.T) {
	spec := Spec{Name: "roundtrip", NumVertices: 300, NumEdges: 1800,
		FeatDims: []int{12, 8, 4}, TrainNodes: 120}
	ds, err := Materialize(spec, 0.4, tensor.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ds.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadDataset(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Spec.Name != "roundtrip" || got.Spec.NumVertices != 300 {
		t.Fatalf("spec lost: %+v", got.Spec)
	}
	if len(got.Spec.FeatDims) != 3 || got.Spec.FeatDims[2] != 4 {
		t.Fatalf("dims lost: %v", got.Spec.FeatDims)
	}
	if got.Graph.NumVertices != ds.Graph.NumVertices || got.Graph.NumEdges() != ds.Graph.NumEdges() {
		t.Fatal("graph size changed")
	}
	for v := 0; v < got.Graph.NumVertices; v++ {
		a, b := ds.Graph.Neighbors(int32(v)), got.Graph.Neighbors(int32(v))
		if len(a) != len(b) {
			t.Fatalf("vertex %d degree changed", v)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("vertex %d neighbors changed", v)
			}
		}
	}
	if !got.Features.Equal(ds.Features) {
		t.Fatal("features changed")
	}
	for i := range ds.Labels {
		if got.Labels[i] != ds.Labels[i] {
			t.Fatal("labels changed")
		}
	}
	if len(got.TrainIdx) != len(ds.TrainIdx) {
		t.Fatal("train split changed")
	}
	for i := range ds.TrainIdx {
		if got.TrainIdx[i] != ds.TrainIdx[i] {
			t.Fatal("train indices changed")
		}
	}
}

func TestLoadDatasetRejectsGarbage(t *testing.T) {
	if _, err := LoadDataset(bytes.NewReader(bytes.Repeat([]byte{7}, 128))); err == nil {
		t.Fatal("expected magic error")
	}
	if _, err := LoadDataset(bytes.NewReader(nil)); err == nil {
		t.Fatal("expected EOF error")
	}
}

func TestLoadDatasetRejectsTruncated(t *testing.T) {
	spec := Spec{Name: "t", NumVertices: 100, NumEdges: 400, FeatDims: []int{4, 3}, TrainNodes: 10}
	ds, err := Materialize(spec, 0.2, tensor.NewRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ds.Save(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	if _, err := LoadDataset(bytes.NewReader(full[:len(full)*2/3])); err == nil {
		t.Fatal("expected truncation error")
	}
}

// rawDataset is the field-by-field content of a serialized dataset, so tests
// can write streams Save never would.
type rawDataset struct {
	nv, ne, train uint64
	nDims         uint64 // written as the dims count, whatever len(dims) is
	name          string
	dims          []uint32
	gv            uint64
	rowPtr        []int64
	nCol          uint64
	colIdx        []int32
	tail          []byte // features, labels and split, copied verbatim
}

func (d rawDataset) bytes() []byte {
	var buf bytes.Buffer
	le := binary.LittleEndian
	for _, v := range []uint64{datasetMagic, datasetVersion, d.nv, d.ne, d.train, d.nDims, uint64(len(d.name))} {
		binary.Write(&buf, le, v)
	}
	buf.WriteString(d.name)
	binary.Write(&buf, le, d.dims)
	binary.Write(&buf, le, d.gv)
	binary.Write(&buf, le, d.rowPtr)
	binary.Write(&buf, le, d.nCol)
	binary.Write(&buf, le, d.colIdx)
	buf.Write(d.tail)
	return buf.Bytes()
}

// tinyRaw is a consistent 3-vertex, 2-edge, 2-wide dataset.
func tinyRaw() rawDataset {
	var tail bytes.Buffer
	le := binary.LittleEndian
	binary.Write(&tail, le, []float32{1, 2, 3, 4, 5, 6}) // features 3x2
	binary.Write(&tail, le, []int32{0, 1, 0})            // labels
	binary.Write(&tail, le, uint64(1))                   // one train index
	binary.Write(&tail, le, []int32{2})
	return rawDataset{nv: 3, ne: 2, train: 1, nDims: 2, name: "tiny", dims: []uint32{2, 2},
		gv: 3, rowPtr: []int64{0, 1, 1, 2}, nCol: 2, colIdx: []int32{2, 0}, tail: tail.Bytes()}
}

func TestLoadDatasetRawFixtureLoads(t *testing.T) {
	ds, err := LoadDataset(bytes.NewReader(tinyRaw().bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if ds.Graph.NumEdges() != 2 || ds.Features.At(2, 1) != 6 || len(ds.TrainIdx) != 1 {
		t.Fatalf("tiny dataset misread: %+v", ds)
	}
}

// Malformed headers and counts are errors, not panics: each of these
// panicked before the counts were checked (index out of range on a
// zero-dims header; makeslice: len out of range on a huge vertex or
// column count).
func TestLoadDatasetRejectsMalformedCounts(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*rawDataset)
	}{
		{"zero dims", func(d *rawDataset) { d.nDims, d.dims = 0, nil }},
		{"zero dim", func(d *rawDataset) { d.dims[0] = 0 }},
		{"huge graph vertex count", func(d *rawDataset) { d.gv = 1 << 61 }},
		{"graph vertex count differs from header", func(d *rawDataset) { d.gv, d.rowPtr = 2, d.rowPtr[:3] }},
		{"huge column count", func(d *rawDataset) { d.nCol = 1 << 61 }},
		{"column count differs from RowPtr", func(d *rawDataset) { d.nCol, d.colIdx = 1, d.colIdx[:1] }},
	} {
		d := tinyRaw()
		tc.mutate(&d)
		if _, err := LoadDataset(bytes.NewReader(d.bytes())); err == nil {
			t.Errorf("%s: loaded without error", tc.name)
		}
	}
}

// A header announcing 2^24 vertices over a stream that ends inside RowPtr
// must fail at EOF without allocating the 128 MB the count implies.
func TestLoadDatasetTruncatedCountAllocatesLittle(t *testing.T) {
	d := tinyRaw()
	d.nv, d.gv = 1<<24, 1<<24
	data := d.bytes()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := LoadDataset(bytes.NewReader(data))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("truncated RowPtr loaded without error")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 8<<20 {
		t.Fatalf("truncated stream allocated %d bytes before failing", got)
	}
}

// FuzzLoadDataset: any byte stream either loads into a consistent dataset
// or returns an error; it never panics. The seeds are a real saved dataset,
// the raw fixture and its malformed variants above (none of which asks the
// unchecked loader for more than a small allocation before it panics).
func FuzzLoadDataset(f *testing.F) {
	ds, err := Materialize(Spec{Name: "fuzz", NumVertices: 20, NumEdges: 40,
		FeatDims: []int{3, 2}, TrainNodes: 5}, 0.5, tensor.NewRNG(3))
	if err != nil {
		f.Fatal(err)
	}
	var saved bytes.Buffer
	if err := ds.Save(&saved); err != nil {
		f.Fatal(err)
	}
	f.Add(saved.Bytes())
	f.Add(saved.Bytes()[:saved.Len()/2])
	f.Add(tinyRaw().bytes())
	zeroDims := tinyRaw()
	zeroDims.nDims, zeroDims.dims = 0, nil
	f.Add(zeroDims.bytes())
	hugeV := tinyRaw()
	hugeV.gv = 1 << 61
	f.Add(hugeV.bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		ds, err := LoadDataset(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := ds.Graph.Validate(); err != nil {
			t.Fatalf("loaded an invalid graph: %v", err)
		}
		v := ds.Graph.NumVertices
		if int64(v) != ds.Spec.NumVertices || ds.Features.Rows != v || len(ds.Labels) != v ||
			ds.Features.Cols != ds.Spec.FeatDims[0] || len(ds.TrainIdx) > v {
			t.Fatalf("loaded inconsistent sizes: V=%d spec=%+v features %dx%d labels %d train %d",
				v, ds.Spec, ds.Features.Rows, ds.Features.Cols, len(ds.Labels), len(ds.TrainIdx))
		}
	})
}
