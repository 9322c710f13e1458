package main

import (
	"encoding/binary"
	"math/rand"
)

// blockSize is the value and block size every workload moves.
const blockSize = 4096

// kind is the class an operation's latency is reported under.
type kind uint8

const (
	kRead kind = iota
	kWrite
	kMeta
)

// op is one generated operation. obj names the object it touches: a key
// index for the KV workloads, a file block (file*fileBlocks+block) for
// fs-cold's reads and overwrites, and a small-file slot for its metadata
// ops. roll is a seeded draw that picks a metadata op once the model says
// whether the slot's file exists.
type op struct {
	kind kind
	obj  int32
	roll uint16
}

// KV dataset: 8192 keys of 4 KiB (32 MiB), Zipf keys; 87% get, 10% put
// and 3% has, the KV interface's metadata op (meta_p50_us).
const (
	kvKeys     = 8192
	kvPutShare = 0.10
	kvHasShare = 0.03
	kvZipfS    = 1.1
)

// FS dataset: 16 files of 4 MiB (64 MiB) plus a rotating set of small
// files; 70% read, 20% aligned overwrite, 10% metadata.
const (
	fsFiles     = 16
	fileBlocks  = 1024
	fsBlocks    = fsFiles * fileBlocks
	fsSlots     = 64
	fsReadShare = 0.70
	fsMetaShare = 0.10
	fsSyncEvery = 32
)

// kvStream draws n KV ops from seed. Zipf ranks are mapped through a
// seeded permutation so the hot keys spread over the index shards.
func kvStream(seed int64, n int) []op {
	r := rand.New(rand.NewSource(seed))
	perm := r.Perm(kvKeys)
	z := rand.NewZipf(r, kvZipfS, 1, kvKeys-1)
	ops := make([]op, n)
	for i := range ops {
		k := kRead
		switch u := r.Float64(); {
		case u < kvPutShare:
			k = kWrite
		case u < kvPutShare+kvHasShare:
			k = kMeta
		}
		ops[i] = op{kind: k, obj: int32(perm[z.Uint64()])}
	}
	return ops
}

// fsStream draws n fs-cold ops from seed: uniform block offsets over the
// large files, uniform slots over the small-file set.
func fsStream(seed int64, n int) []op {
	r := rand.New(rand.NewSource(seed ^ 0x5eed_f5))
	ops := make([]op, n)
	for i := range ops {
		u := r.Float64()
		switch {
		case u < fsMetaShare:
			ops[i] = op{kind: kMeta, obj: int32(r.Intn(fsSlots)), roll: uint16(r.Intn(1 << 16))}
		case u < fsMetaShare+fsReadShare:
			ops[i] = op{kind: kRead, obj: int32(r.Intn(fsBlocks))}
		default:
			ops[i] = op{kind: kWrite, obj: int32(r.Intn(fsBlocks))}
		}
	}
	return ops
}

// Payloads are version-stamped: the first two words name the object and
// version, the rest is a pattern derived from both, so a read proves it got
// the last version written of the right object.
const golden = 0x9E3779B97F4A7C15

func mix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	return x ^ x>>33
}

// stamp fills b with the payload of (obj, ver).
func stamp(b []byte, obj, ver uint64) {
	binary.LittleEndian.PutUint64(b[0:], obj)
	binary.LittleEndian.PutUint64(b[8:], ver)
	x := mix(obj<<24 ^ ver)
	for i := 16; i+8 <= len(b); i += 8 {
		binary.LittleEndian.PutUint64(b[i:], x+uint64(i)*golden)
	}
}

// stamped reports whether b holds exactly the payload of (obj, ver).
func stamped(b []byte, obj, ver uint64) bool {
	if len(b) != blockSize ||
		binary.LittleEndian.Uint64(b[0:]) != obj ||
		binary.LittleEndian.Uint64(b[8:]) != ver {
		return false
	}
	x := mix(obj<<24 ^ ver)
	for i := 16; i+8 <= len(b); i += 8 {
		if binary.LittleEndian.Uint64(b[i:]) != x+uint64(i)*golden {
			return false
		}
	}
	return true
}
