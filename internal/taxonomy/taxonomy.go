// Package taxonomy defines the profiling vocabulary of the paper: the three
// broad cycle classes (core compute, datacenter tax, system tax), the
// fine-grained categories of Tables 2–5, and a leaf-function classifier used
// by the fleet profiler to bucket samples, mirroring the manual
// categorization of GWP samples described in §5.1.
package taxonomy

import (
	"sort"
	"strings"
)

// Platform identifies one of the three profiled big-data processing systems.
type Platform string

// The three platforms characterized by the paper (§2.2).
const (
	Spanner  Platform = "Spanner"
	BigTable Platform = "BigTable"
	BigQuery Platform = "BigQuery"
)

// Platforms lists all platforms in presentation order.
func Platforms() []Platform { return []Platform{Spanner, BigTable, BigQuery} }

// Broad is one of the three top-level cycle classes of Figure 3.
type Broad int

const (
	// CoreCompute is the platform's essential business logic (§5.2).
	CoreCompute Broad = iota
	// DatacenterTax covers the hyperscale-common functions of Table 2.
	DatacenterTax
	// SystemTax covers the shared overheads of Table 3.
	SystemTax
)

// String implements fmt.Stringer.
func (b Broad) String() string {
	switch b {
	case CoreCompute:
		return "Core Compute"
	case DatacenterTax:
		return "Datacenter Taxes"
	case SystemTax:
		return "System Taxes"
	}
	return "Unknown"
}

// Broads lists the broad classes in presentation order.
func Broads() []Broad { return []Broad{CoreCompute, DatacenterTax, SystemTax} }

// Category is a fine-grained cycle category from Tables 2–5.
type Category string

// Datacenter tax categories (Table 2).
const (
	Compression   Category = "Compression"
	Cryptography  Category = "Cryptography"
	DataMovement  Category = "Data Movement"
	MemAllocation Category = "Mem. Allocation"
	Protobuf      Category = "Protobuf"
	RPC           Category = "RPC"
)

// System tax categories (Table 3).
const (
	EDAC             Category = "EDAC"
	FileSystems      Category = "File Systems"
	OtherMemoryOps   Category = "Other Memory Ops."
	Multithreading   Category = "Multithreading"
	Networking       Category = "Networking"
	OperatingSystems Category = "Operating Systems"
	STL              Category = "STL"
	MiscSystem       Category = "Misc. System Taxes"
)

// Database core-compute categories (Table 4, Spanner and BigTable).
const (
	Read          Category = "Read"
	Write         Category = "Write"
	Compaction    Category = "Compaction"
	Consensus     Category = "Consensus"
	Query         Category = "Query"
	MiscCore      Category = "Misc."
	Uncategorized Category = "Uncategorized"
)

// BigQuery core-compute categories (Table 5).
const (
	Aggregate   Category = "Aggregate"
	Compute     Category = "Compute"
	Destructure Category = "Destructure"
	Filter      Category = "Filter"
	Join        Category = "Join"
	Materialize Category = "Materialize"
	Project     Category = "Project"
	Sort        Category = "Sort"
)

// Descriptions carries the category descriptions of Tables 2–5 verbatim.
var Descriptions = map[Category]string{
	Compression:   "(De)compression ops.",
	Cryptography:  "Hashing, security tools/infra., etc.",
	DataMovement:  "mem{cpy,move}, copy_user ops.",
	MemAllocation: "Mem. reservation ops. (malloc, etc.)",
	Protobuf:      "(De)serialization setup and ops.",
	RPC:           "Remote procedure calls",

	EDAC:             "Error handling (checksums, etc.)",
	FileSystems:      "IO backend client compute",
	OtherMemoryOps:   "Non-data-movement mem. ops.",
	Multithreading:   "Thread management overheads",
	Networking:       "Packet, web, server processing",
	OperatingSystems: "Kernel, syscalls, time ops.",
	STL:              "Standard fleet-wide libraries",
	MiscSystem:       "Uncategorized ops.",

	Read:          "Read operations",
	Write:         "Write/commit operations",
	Compaction:    "Revision control/cleanup",
	Consensus:     "Replication and consensus protocols",
	Query:         "SQL-like compute",
	MiscCore:      "Long-tail of labeled misc. compute",
	Uncategorized: "Unlabeled compute",

	Aggregate:   "Compute/data-mov. for hash/sort aggs.",
	Compute:     "Col.-wise ops on pre-grouped aggs.",
	Destructure: "Structured element field access",
	Filter:      "Scan/selection of rows",
	Join:        "Compute/data-mov. of hash/sort joins",
	Materialize: "Construction of in-memory tables",
	Project:     "Retrieval of individual table columns",
	Sort:        "Non agg./join sort operations",
}

// DatacenterTaxes lists the Table 2 categories in presentation order.
func DatacenterTaxes() []Category {
	return []Category{Compression, Cryptography, DataMovement, MemAllocation, Protobuf, RPC}
}

// SystemTaxes lists the Table 3 categories in presentation order.
func SystemTaxes() []Category {
	return []Category{EDAC, FileSystems, OtherMemoryOps, Multithreading, Networking, OperatingSystems, STL, MiscSystem}
}

// DatabaseCoreCompute lists the Table 4 categories in presentation order.
func DatabaseCoreCompute() []Category {
	return []Category{Read, Write, Compaction, Consensus, Query, MiscCore, Uncategorized}
}

// BigQueryCoreCompute lists the Table 5 categories (plus the misc/uncategorized
// tails shown in Figure 4) in presentation order.
func BigQueryCoreCompute() []Category {
	return []Category{Aggregate, Compute, Destructure, Filter, Join, Materialize, Project, Sort, MiscCore, Uncategorized}
}

// CoreComputeFor returns the core-compute category list for a platform.
func CoreComputeFor(p Platform) []Category {
	if p == BigQuery {
		return BigQueryCoreCompute()
	}
	return DatabaseCoreCompute()
}

var broadOf = map[Category]Broad{}

func init() {
	for _, c := range DatacenterTaxes() {
		broadOf[c] = DatacenterTax
	}
	for _, c := range SystemTaxes() {
		broadOf[c] = SystemTax
	}
	for _, c := range DatabaseCoreCompute() {
		broadOf[c] = CoreCompute
	}
	for _, c := range BigQueryCoreCompute() {
		broadOf[c] = CoreCompute
	}
}

// BroadOf returns the broad class a category belongs to. Unknown categories
// are treated as core compute's Uncategorized bucket.
func BroadOf(c Category) Broad {
	if b, ok := broadOf[c]; ok {
		return b
	}
	return CoreCompute
}

// Classifier maps leaf function names (as they appear in profile samples) to
// categories by longest-prefix match, mirroring the manual categorization of
// §5.1. A '*' registered as the final byte of a prefix matches any suffix;
// exact names are just prefixes that happen to match fully.
type Classifier struct {
	rules map[string]Category
	// sorted prefixes, longest first, rebuilt lazily
	prefixes []string
	dirty    bool
}

// NewClassifier returns a classifier preloaded with the fleet-wide rules
// shared by all platforms (allocator, runtime, kernel, RPC stack and friends).
func NewClassifier() *Classifier {
	c := &Classifier{rules: map[string]Category{}, dirty: true}
	for prefix, cat := range fleetRules {
		c.rules[prefix] = cat
	}
	return c
}

// fleetRules classify the shared infrastructure functions every platform
// binary links in.
var fleetRules = map[string]Category{
	"tcmalloc.":    MemAllocation,
	"malloc":       MemAllocation,
	"operator.new": MemAllocation,
	"memcpy":       DataMovement,
	"memmove":      DataMovement,
	"copy_user":    DataMovement,
	"snappy.":      Compression,
	"zlib.":        Compression,
	"zstd.":        Compression,
	"brotli.":      Compression,
	"proto.":       Protobuf,
	"protobuf.":    Protobuf,
	"stubby.":      RPC,
	"rpc.":         RPC,
	"grpc.":        RPC,
	"crypto.":      Cryptography,
	"sha.":         Cryptography,
	"aes.":         Cryptography,
	"tls.":         Cryptography,
	"crc32c.":      EDAC,
	"checksum.":    EDAC,
	"ecc.":         EDAC,
	"fsclient.":    FileSystems,
	"colossus.":    FileSystems,
	"dfs.":         FileSystems,
	"thread.":      Multithreading,
	"pthread":      Multithreading,
	"futex":        Multithreading,
	"sched.":       Multithreading,
	"net.":         Networking,
	"tcp.":         Networking,
	"packet.":      Networking,
	"kernel.":      OperatingSystems,
	"syscall.":     OperatingSystems,
	"vdso.":        OperatingSystems,
	"time.":        OperatingSystems,
	"page_fault":   OperatingSystems,
	"std.":         STL,
	"absl.":        STL,
	"string.":      STL,
	"hashmap.":     STL,
	"sys.misc.":    MiscSystem,
	"mem.other.":   OtherMemoryOps,
	"memset":       OtherMemoryOps,
	"memcmp":       OtherMemoryOps,
}

// Register adds a classification rule: any function whose name begins with
// prefix maps to cat. Longer prefixes win over shorter ones.
func (c *Classifier) Register(prefix string, cat Category) {
	c.rules[prefix] = cat
	c.dirty = true
}

// Classify returns the category for a leaf function name, or Uncategorized
// when no rule matches.
func (c *Classifier) Classify(fn string) Category {
	if c.dirty {
		c.prefixes = c.prefixes[:0]
		for p := range c.rules {
			c.prefixes = append(c.prefixes, p)
		}
		sort.Slice(c.prefixes, func(i, j int) bool {
			if len(c.prefixes[i]) != len(c.prefixes[j]) {
				return len(c.prefixes[i]) > len(c.prefixes[j])
			}
			return c.prefixes[i] < c.prefixes[j]
		})
		c.dirty = false
	}
	for _, p := range c.prefixes {
		if strings.HasPrefix(fn, p) {
			return c.rules[p]
		}
	}
	return Uncategorized
}
