package taxonomy

import "testing"

func TestBroadOfCoversAllCategories(t *testing.T) {
	all := [][]Category{DatacenterTaxes(), SystemTaxes(), DatabaseCoreCompute(), BigQueryCoreCompute()}
	want := []Broad{DatacenterTax, SystemTax, CoreCompute, CoreCompute}
	for i, list := range all {
		for _, c := range list {
			if _, ok := broadOf[c]; !ok {
				t.Errorf("category %q not known", c)
			}
			if BroadOf(c) != want[i] {
				t.Errorf("BroadOf(%q) = %v, want %v", c, BroadOf(c), want[i])
			}
		}
	}
}

func TestBroadOfUnknownDefaultsToCoreCompute(t *testing.T) {
	if BroadOf(Category("nonsense")) != CoreCompute {
		t.Fatal("unknown category should default to core compute")
	}
	if _, ok := broadOf[Category("nonsense")]; ok {
		t.Fatal("nonsense should not be known")
	}
}

func TestDescriptionsComplete(t *testing.T) {
	for _, list := range [][]Category{DatacenterTaxes(), SystemTaxes(), DatabaseCoreCompute(), BigQueryCoreCompute()} {
		for _, c := range list {
			if Descriptions[c] == "" {
				t.Errorf("missing description for %q", c)
			}
		}
	}
}

func TestTableSizesMatchPaper(t *testing.T) {
	if n := len(DatacenterTaxes()); n != 6 {
		t.Errorf("Table 2 has %d categories, want 6", n)
	}
	if n := len(SystemTaxes()); n != 8 {
		t.Errorf("Table 3 has %d categories, want 8", n)
	}
	if n := len(DatabaseCoreCompute()); n != 7 {
		t.Errorf("Table 4 has %d categories, want 7", n)
	}
	// Table 5 proper has 8; Figure 4 adds Misc. and Uncategorized tails.
	if n := len(BigQueryCoreCompute()); n != 10 {
		t.Errorf("BigQuery core list has %d categories, want 10", n)
	}
}

func TestCoreComputeFor(t *testing.T) {
	if got := CoreComputeFor(Spanner); got[0] != Read {
		t.Errorf("Spanner core compute starts with %q", got[0])
	}
	if got := CoreComputeFor(BigQuery); got[0] != Aggregate {
		t.Errorf("BigQuery core compute starts with %q", got[0])
	}
}

func TestBroadString(t *testing.T) {
	cases := map[Broad]string{CoreCompute: "Core Compute", DatacenterTax: "Datacenter Taxes", SystemTax: "System Taxes", Broad(99): "Unknown"}
	for b, want := range cases {
		if b.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(b), b.String(), want)
		}
	}
}

func TestClassifierFleetRules(t *testing.T) {
	c := NewClassifier()
	cases := map[string]Category{
		"tcmalloc.allocate":        MemAllocation,
		"memcpy_avx2":              DataMovement,
		"snappy.RawCompress":       Compression,
		"proto.WireFormat.Encode":  Protobuf,
		"stubby.ServerCall":        RPC,
		"sha.SHA3_256":             Cryptography,
		"crc32c.Extend":            EDAC,
		"colossus.ReadChunk":       FileSystems,
		"futex_wait":               Multithreading,
		"tcp.SendMsg":              Networking,
		"syscall.read":             OperatingSystems,
		"std.sort":                 STL,
		"memset_erms":              OtherMemoryOps,
		"totally.unknown.function": Uncategorized,
	}
	for fn, want := range cases {
		if got := c.Classify(fn); got != want {
			t.Errorf("Classify(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestClassifierLongestPrefixWins(t *testing.T) {
	c := NewClassifier()
	c.Register("spanner.", MiscCore)
	c.Register("spanner.read.", Read)
	if got := c.Classify("spanner.read.RowLookup"); got != Read {
		t.Fatalf("got %q, want Read", got)
	}
	if got := c.Classify("spanner.other"); got != MiscCore {
		t.Fatalf("got %q, want MiscCore", got)
	}
}

func TestClassifierRegisterAfterClassify(t *testing.T) {
	c := NewClassifier()
	if got := c.Classify("myplatform.scan"); got != Uncategorized {
		t.Fatalf("got %q before registration", got)
	}
	c.Register("myplatform.", Filter)
	if got := c.Classify("myplatform.scan"); got != Filter {
		t.Fatalf("got %q after registration, want Filter", got)
	}
}

func TestPlatforms(t *testing.T) {
	ps := Platforms()
	if len(ps) != 3 || ps[0] != Spanner || ps[1] != BigTable || ps[2] != BigQuery {
		t.Fatalf("Platforms() = %v", ps)
	}
}
