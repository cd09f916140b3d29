package serve

import (
	"os"

	"gep/internal/core"
	"gep/internal/matrix"
	"gep/internal/ooc"
	"gep/internal/par"
)

// StorageSpec is the optional "storage" object of a job Spec. When
// present (with out_of_core: true), the job runs against a durable
// striped ooc store in a per-job temporary directory instead of
// in-RAM dense matrices: tiles are checksummed, write-behind is
// striped across backing files, and the run commits journal sync
// points every checkpoint_every base-case blocks. Results are
// bit-identical to the in-core engines. Only the ops that advertise
// "ooc": true on GET /v1/ops accept it.
type StorageSpec struct {
	// OutOfCore must be true; requiring it keeps an accidental empty
	// "storage": {} from silently changing the execution engine.
	OutOfCore bool `json:"out_of_core"`
	// Stripes is the backing-file count (0 = store default, max 64).
	Stripes int `json:"stripes,omitempty"`
	// TileSide is the tile (and I-GEP base-case) side; 0 defaults to
	// 32. Must be a power of two >= 8; clamped down to n.
	TileSide int `json:"tile_side,omitempty"`
	// CacheBytes is the in-RAM tile cache budget (0 = 16 MiB). Jobs
	// larger than the budget fault tiles in and out — that is the
	// point.
	CacheBytes int64 `json:"cache_bytes,omitempty"`
	// Compress enables per-tile zero-run compression of spilled tiles.
	Compress bool `json:"compress,omitempty"`
	// CheckpointEvery is the durable sync-point interval in base-case
	// blocks (0 = 64). Ignored by "multiply", which syncs once at
	// completion.
	CheckpointEvery int64 `json:"checkpoint_every,omitempty"`
}

// storageDefaults for the unset StorageSpec knobs.
const (
	storageDefaultTile  = 32
	storageDefaultCache = int64(16 << 20)
	storageDefaultCkpt  = int64(64)
	storageMaxStripes   = 64
)

// config builds the store configuration for one job, confining the
// store's background work (write-behind, parallel checkpoint apply)
// to the job's private runtime.
func (st *StorageSpec) config(rt *par.Runtime) ooc.Config {
	cache := st.CacheBytes
	if cache == 0 {
		cache = storageDefaultCache
	}
	return ooc.Config{
		PageSize:  1 << 12,
		CacheSize: cache,
		Stripes:   st.Stripes,
		Compress:  st.Compress,
		Runtime:   rt,
	}
}

// tile resolves the tile side for an n×n job.
func (st *StorageSpec) tile(n int) int {
	t := st.TileSide
	if t == 0 {
		t = storageDefaultTile
	}
	if t > n {
		t = n
	}
	return t
}

// every resolves the sync-point interval.
func (st *StorageSpec) every() int64 {
	if st.CheckpointEvery == 0 {
		return storageDefaultCkpt
	}
	return st.CheckpointEvery
}

// runDurableGEP executes the in-place GEP op over in on a durable
// store and returns the factored matrix. The store lives in a
// temporary directory that is removed when the job finishes either
// way — durability here buys checksummed, journaled execution (and
// abort responsiveness via the Stop poll), not cross-job persistence.
func runDurableGEP(st *StorageSpec, rt *par.Runtime, in *matrix.Dense[float64],
	op core.Op[float64], set core.UpdateSet) (*matrix.Dense[float64], error) {
	dir, err := os.MkdirTemp("", "gep-serve-ooc-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	s, err := ooc.CreateAt(dir, st.config(rt))
	if err != nil {
		return nil, err
	}
	m := ooc.NewMatrix(s, in.N(), 0, ooc.MortonTiledLayout(st.tile(in.N())))
	if err := m.LoadTiles(in); err != nil {
		s.Abandon()
		return nil, err
	}
	if err := s.Checkpoint(0); err != nil {
		s.Abandon()
		return nil, err
	}
	err = ooc.RunIGEP(m, op, set, ooc.RunOptions{
		CheckpointEvery: st.every(),
		Stop:            rt.Aborted,
	})
	if err != nil {
		s.Abandon()
		return nil, err
	}
	out, uerr := m.Unload()
	if uerr != nil {
		s.Abandon()
		return nil, uerr
	}
	return out, s.Close()
}

// runDurableMultiply executes c = a·b on a durable store holding all
// three matrices (a, b, c at consecutive bases; Strassen scratch goes
// past them). crossover >= n selects the purely classical tile loop,
// which is bit-identical to the in-core fused engine; smaller
// crossovers run Strassen-Winograd, bit-identical to the in-core
// Strassen at the same crossover.
func runDurableMultiply(st *StorageSpec, rt *par.Runtime, a, b *matrix.Dense[float64],
	crossover int) (*matrix.Dense[float64], error) {
	n := a.N()
	dir, err := os.MkdirTemp("", "gep-serve-ooc-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	s, err := ooc.CreateAt(dir, st.config(rt))
	if err != nil {
		return nil, err
	}
	layout := ooc.MortonTiledLayout(st.tile(n))
	bytes := int64(n) * int64(n) * 8
	la := ooc.NewMatrix(s, n, 0, layout)
	lb := ooc.NewMatrix(s, n, bytes, layout)
	lc := ooc.NewMatrix(s, n, 2*bytes, layout)
	if err := la.LoadTiles(a); err == nil {
		err = lb.LoadTiles(b)
	}
	if err == nil {
		err = s.Checkpoint(0)
	}
	if err == nil {
		err = ooc.RunStrassen(lc, la, lb, crossover, ooc.RunOptions{Stop: rt.Aborted})
	}
	if err != nil {
		s.Abandon()
		return nil, err
	}
	out, uerr := lc.Unload()
	if uerr != nil {
		s.Abandon()
		return nil, uerr
	}
	return out, s.Close()
}
