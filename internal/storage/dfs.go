package storage

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"time"

	"hyperprof/internal/obs"
)

// DFS is a chunked, replicated distributed file system in the mold of
// Colossus: files are split into fixed-size chunks, each chunk is replicated
// onto R chunkservers chosen deterministically, and every chunkserver is a
// TieredStore so hot chunks are served from RAM or SSD.
type DFS struct {
	servers     []*TieredStore
	down        []bool // failure-injection flags per chunkserver
	replication int
	chunkSize   int64
	files       map[string]file
	nextID      uint64 // the id the next Create gives its file

	// Observability handles (nil when disabled): replicaReads counts chunk
	// reads served, replicaFailovers counts replicas skipped on the way (down
	// or stale) before a chunk was served.
	replicaReads, replicaFailovers *obs.Counter
}

// EnableMetrics registers the DFS's replica-read counters ("dfs.replica.*")
// with an observability registry. A nil registry is a no-op.
func (d *DFS) EnableMetrics(r *obs.Registry) {
	if r == nil {
		return
	}
	d.replicaReads = r.Counter("dfs.replica.reads")
	d.replicaFailovers = r.Counter("dfs.replica.failovers")
}

// file is one DFS file: its size, and the id that keys its chunk replicas
// in the chunkservers' stores.
type file struct {
	size int64
	id   uint32
}

// maxChunks bounds a file's chunk count so chunk indices fit chunkKey.
const maxChunks = 1 << 32

// ErrAllReplicasDown is returned when every replica of a chunk sits on a
// failed chunkserver.
var ErrAllReplicasDown = errors.New("storage: all replicas down")

// DFSConfig configures a DFS.
type DFSConfig struct {
	// Chunkservers is the number of storage servers (must be >= Replication).
	Chunkservers int
	// Replication is the number of replicas per chunk (default 3).
	Replication int
	// ChunkSize is the chunk granularity in bytes (default 64 MiB).
	ChunkSize int64
	// ServerCapacities provisions each chunkserver's tiers.
	ServerCapacities Capacities
	// TierParams overrides media parameters (nil = defaults).
	TierParams map[Tier]TierParams
}

// NewDFS creates a distributed file system.
func NewDFS(cfg DFSConfig) (*DFS, error) {
	if cfg.Replication == 0 {
		cfg.Replication = 3
	}
	if cfg.ChunkSize == 0 {
		cfg.ChunkSize = 64 << 20
	}
	if cfg.Chunkservers < cfg.Replication {
		return nil, fmt.Errorf("storage: %d chunkservers < replication %d", cfg.Chunkservers, cfg.Replication)
	}
	d := &DFS{
		replication: cfg.Replication,
		chunkSize:   cfg.ChunkSize,
		files:       map[string]file{},
		down:        make([]bool, cfg.Chunkservers),
	}
	for i := 0; i < cfg.Chunkservers; i++ {
		s, err := NewTieredStore(cfg.ServerCapacities, cfg.TierParams)
		if err != nil {
			return nil, err
		}
		d.servers = append(d.servers, s)
	}
	return d, nil
}

// FailServer marks a chunkserver as down: reads fail over to surviving
// replicas; writes skip it (its replicas go stale until RecoverServer).
func (d *DFS) FailServer(i int) error {
	if i < 0 || i >= len(d.servers) {
		return fmt.Errorf("storage: chunkserver %d out of range", i)
	}
	d.down[i] = true
	return nil
}

// RecoverServer brings a failed chunkserver back.
func (d *DFS) RecoverServer(i int) error {
	if i < 0 || i >= len(d.servers) {
		return fmt.Errorf("storage: chunkserver %d out of range", i)
	}
	d.down[i] = false
	return nil
}

// ServerDown reports whether chunkserver i is currently failed.
func (d *DFS) ServerDown(i int) bool {
	return i >= 0 && i < len(d.down) && d.down[i]
}

// DownServers returns the indices of failed chunkservers.
func (d *DFS) DownServers() []int {
	var out []int
	for i, dn := range d.down {
		if dn {
			out = append(out, i)
		}
	}
	return out
}

// Servers returns the chunkserver stores (for inventory and stats).
func (d *DFS) Servers() []*TieredStore { return d.servers }

// ChunkSize returns the chunk granularity.
func (d *DFS) ChunkSize() int64 { return d.chunkSize }

// chunkKey names a chunk replica object: the file's id over the chunk index.
func chunkKey(f file, idx int64) uint64 { return uint64(f.id)<<32 | uint64(idx) }

// replicaServers appends the deterministic replica placement of a chunk to
// dst and returns it: replication consecutive servers from one picked by an
// FNV-1a hash of the bytes name + "/" + idx in decimal. Callers pass a
// stack buffer, so placement allocates nothing.
func (d *DFS) replicaServers(dst []int, name string, idx int64) []int {
	h := fnvOffset64
	for i := 0; i < len(name); i++ {
		h = fnvByte(h, name[i])
	}
	h = fnvByte(h, '/')
	var digits [20]byte
	for _, c := range strconv.AppendInt(digits[:0], idx, 10) {
		h = fnvByte(h, c)
	}
	start := int(h % uint64(len(d.servers)))
	for i := 0; i < d.replication; i++ {
		dst = append(dst, (start+i)%len(d.servers))
	}
	return dst
}

// Exists reports whether the file exists.
func (d *DFS) Exists(name string) bool {
	_, ok := d.files[name]
	return ok
}

// FileSize returns a file's size or an error.
func (d *DFS) FileSize(name string) (int64, error) {
	f, ok := d.files[name]
	if !ok {
		return 0, fmt.Errorf("%w: file %q", ErrNotFound, name)
	}
	return f.size, nil
}

// chunks returns a file's chunk count: at least one, even when empty.
func (d *DFS) chunks(size int64) int64 {
	n := size / d.chunkSize
	if size%d.chunkSize != 0 || n == 0 {
		n++
	}
	return n
}

// Create allocates a file of the given size, writing all chunk replicas. The
// returned duration models the client-visible write: chunks stream
// sequentially, replicas write in parallel (max across replicas per chunk).
func (d *DFS) Create(name string, size int64) (time.Duration, error) {
	if size < 0 {
		return 0, fmt.Errorf("storage: negative file size")
	}
	if d.Exists(name) {
		return 0, fmt.Errorf("storage: file %q exists", name)
	}
	if d.chunks(size) > maxChunks {
		return 0, fmt.Errorf("storage: file %q needs more than %d chunks", name, int64(maxChunks))
	}
	if d.nextID > math.MaxUint32 {
		return 0, fmt.Errorf("storage: file ids exhausted")
	}
	f := file{size: size, id: uint32(d.nextID)}
	d.nextID++
	d.files[name] = f
	var total time.Duration
	var buf [8]int
	for idx, remaining := int64(0), size; remaining > 0 || idx == 0; idx++ {
		sz := min64(remaining, d.chunkSize)
		if size == 0 {
			sz = 0
		}
		var worst time.Duration
		placed := 0
		for _, si := range d.replicaServers(buf[:0], name, idx) {
			if d.down[si] {
				continue // re-replication after recovery is out of scope
			}
			dur, err := d.servers[si].Write(chunkKey(f, idx), sz)
			if err != nil {
				return 0, err
			}
			placed++
			if dur > worst {
				worst = dur
			}
		}
		if placed == 0 {
			return 0, fmt.Errorf("%w: %s chunk %d", ErrAllReplicasDown, name, idx)
		}
		total += worst
		remaining -= sz
		if remaining <= 0 {
			break
		}
	}
	return total, nil
}

// Read reads [offset, offset+length) of a file, returning the modeled time:
// the affected chunks are fetched sequentially, each from its first replica.
// It also returns the slowest tier touched, which callers use to decide
// whether an access counted as a cache hit.
func (d *DFS) Read(name string, offset, length int64) (time.Duration, Tier, error) {
	f, ok := d.files[name]
	if !ok {
		return 0, HDD, fmt.Errorf("%w: file %q", ErrNotFound, name)
	}
	size := f.size
	if offset < 0 || length < 0 || offset+length > size {
		return 0, HDD, fmt.Errorf("storage: read [%d,%d) out of bounds for %q (size %d)", offset, offset+length, name, size)
	}
	if length == 0 {
		return 0, RAM, nil
	}
	var total time.Duration
	worstTier := RAM
	var buf [8]int
	for idx := offset / d.chunkSize; idx <= (offset+length-1)/d.chunkSize; idx++ {
		// Serve from the first live replica that actually holds the chunk. A
		// recovered server may hold stale replicas (chunks written while it
		// was down were skipped, not re-replicated), so a miss falls through
		// to the next replica rather than failing the read.
		var dur time.Duration
		var tier Tier
		served := false
		for _, cand := range d.replicaServers(buf[:0], name, idx) {
			if d.down[cand] {
				d.replicaFailovers.Inc()
				continue
			}
			var err error
			dur, tier, err = d.servers[cand].Read(chunkKey(f, idx))
			if err == nil {
				served = true
				break
			}
			if !errors.Is(err, ErrNotFound) {
				return 0, HDD, err
			}
			d.replicaFailovers.Inc() // stale replica: fall through to the next
		}
		if !served {
			return 0, HDD, fmt.Errorf("%w: %s chunk %d", ErrAllReplicasDown, name, idx)
		}
		d.replicaReads.Inc()
		total += dur
		if tier > worstTier {
			worstTier = tier
		}
	}
	return total, worstTier, nil
}

// Delete removes a file and all chunk replicas.
func (d *DFS) Delete(name string) error {
	f, ok := d.files[name]
	if !ok {
		return fmt.Errorf("%w: file %q", ErrNotFound, name)
	}
	var buf [8]int
	for idx := int64(0); idx < d.chunks(f.size); idx++ {
		for _, si := range d.replicaServers(buf[:0], name, idx) {
			d.servers[si].Delete(chunkKey(f, idx))
		}
	}
	delete(d.files, name)
	return nil
}

// TierHits sums read counts per tier across all chunkservers.
func (d *DFS) TierHits() map[Tier]int64 {
	out := map[Tier]int64{}
	for _, s := range d.servers {
		for _, t := range Tiers() {
			out[t] += s.Stats(t).Reads
		}
	}
	return out
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
