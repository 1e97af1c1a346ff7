package storage

import (
	"strings"
	"testing"
)

func TestReplicaConsistencyCleanAfterCreate(t *testing.T) {
	d, err := NewDFS(dfsConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"a/part-0", "a/part-1", "b/small"} {
		if _, err := d.Create(f, 3<<20); err != nil {
			t.Fatal(err)
		}
	}
	if br := d.CheckReplicaConsistency(); len(br) != 0 {
		t.Fatalf("fresh DFS inconsistent: %v", br)
	}
}

func TestReplicaConsistencySurvivesSingleFailure(t *testing.T) {
	// One failed server out of eight leaves every chunk with live replicas
	// (replication 3, consecutive placement), so the invariant stays clean.
	d, _ := NewDFS(dfsConfig())
	if _, err := d.Create("a/part-0", 5<<20); err != nil {
		t.Fatal(err)
	}
	if err := d.FailServer(2); err != nil {
		t.Fatal(err)
	}
	if br := d.CheckReplicaConsistency(); len(br) != 0 {
		t.Fatalf("single failure broke consistency: %v", br)
	}
}

func TestReplicaConsistencyFlagsStaleOnlyChunks(t *testing.T) {
	// A file created while a server was down skips that replica. When the
	// *other* replicas of one of its chunks later fail, the chunk survives
	// only on servers that never held it or are down — the invariant must
	// name that chunk.
	d, _ := NewDFS(dfsConfig())
	if _, err := d.Create("a/part-0", 1<<20); err != nil {
		t.Fatal(err)
	}
	// Fail every replica of chunk 0: the chunk's copies all sit on failed
	// servers now.
	for _, si := range d.replicaServers(nil, "a/part-0", 0) {
		if err := d.FailServer(si); err != nil {
			t.Fatal(err)
		}
	}
	br := d.CheckReplicaConsistency()
	if len(br) != 1 {
		t.Fatalf("breaches = %v, want exactly the dead chunk", br)
	}
	if !strings.Contains(br[0], "a/part-0 chunk 0") || !strings.Contains(br[0], "failed servers") {
		t.Fatalf("breach text = %q", br[0])
	}
	// Recovery restores the invariant.
	for _, si := range d.replicaServers(nil, "a/part-0", 0) {
		if err := d.RecoverServer(si); err != nil {
			t.Fatal(err)
		}
	}
	if br := d.CheckReplicaConsistency(); len(br) != 0 {
		t.Fatalf("still inconsistent after recovery: %v", br)
	}
}

func TestReplicaConsistencyFlagsLostChunks(t *testing.T) {
	// Deleting a chunk's objects behind the DFS's back (simulating replica
	// loss) must be caught: the file is still in the namespace but one of its
	// chunks has no copies anywhere.
	d, _ := NewDFS(dfsConfig())
	if _, err := d.Create("a/part-0", 2<<20); err != nil {
		t.Fatal(err)
	}
	for _, si := range d.replicaServers(nil, "a/part-0", 1) {
		d.servers[si].Delete(chunkKey(d.files["a/part-0"], 1))
	}
	br := d.CheckReplicaConsistency()
	if len(br) != 1 || !strings.Contains(br[0], "no replica holds the chunk") {
		t.Fatalf("breaches = %v, want the lost chunk", br)
	}
}
