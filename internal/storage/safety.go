package storage

import (
	"fmt"
	"sort"
)

// This file is the safety-checking surface of the DFS: a standing
// replica-consistency invariant the torture harness asserts after every run.

// CheckReplicaConsistency verifies that every chunk of every file is readable
// from at least one live replica, and that no chunk has silently lost all its
// copies (a file whose chunks exist only on failed or stale servers would
// return ErrAllReplicasDown on the next read). It returns one description per
// breach, in deterministic file order.
func (d *DFS) CheckReplicaConsistency() []string {
	names := make([]string, 0, len(d.files))
	for name := range d.files {
		names = append(names, name)
	}
	sort.Strings(names)
	var out []string
	var buf [8]int
	for _, name := range names {
		f := d.files[name]
		for idx := int64(0); idx < d.chunks(f.size); idx++ {
			key := chunkKey(f, idx)
			liveCopies, copies := 0, 0
			for _, si := range d.replicaServers(buf[:0], name, idx) {
				if !d.servers[si].Has(key) {
					continue
				}
				copies++
				if !d.down[si] {
					liveCopies++
				}
			}
			switch {
			case copies == 0:
				out = append(out, fmt.Sprintf("%s chunk %d: no replica holds the chunk", name, idx))
			case liveCopies == 0:
				out = append(out, fmt.Sprintf("%s chunk %d: all %d replicas on failed servers", name, idx, copies))
			}
		}
	}
	return out
}
