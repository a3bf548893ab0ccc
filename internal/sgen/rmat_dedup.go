package sgen

import (
	"math/bits"
	"slices"

	"datasynth/internal/table"
)

// Bucketed round resolution for sharded RMAT. A round's candidates are
// packed (min<<32|max) keys; the round emits the distinct keys that
// are neither self-loops, out of range nor already accepted, in sorted
// key order. Sorted order is what lets the work split: keys are
// partitioned by the top bits of their compact form (min<<s|max, s the
// id bit width), so bucket b holds exactly the keys of one contiguous
// key range, and bucket order is key order. Each bucket is then sorted,
// deduplicated against its own slice of the accepted set and merged
// into the next accepted set independently — by any worker, in any
// order — and concatenating the buckets reproduces the one global
// sorted pass byte for byte.
//
//  1. Chunks of the slab count their valid keys per bucket; a prefix
//     sum over (bucket, chunk) gives every chunk its write offsets, and
//     a second pass scatters the compact keys into their buckets.
//  2. Each bucket is radix-sorted (an average bucket fits in L1; the
//     slab's matching range is the ping-pong buffer), its runs are
//     scanned against the accepted keys of the same range (found by
//     binary search), and the winners are compacted in place.
//  3. A prefix sum over the winner counts places every bucket's winners
//     in the edge table (truncated at limit) and its merge with the
//     accepted set in the next accepted buffer.

const (
	// rmatDedupBucketLog is the log2 of the average bucket size the
	// bucket count aims for: ~1k keys (8 KiB) sort inside L1.
	rmatDedupBucketLog = 10
	// rmatDedupMaxBucketBits caps the bucket count at 4096, which keeps
	// the per-chunk count table (4096 int32 per 64k-key chunk) small
	// and the scatter's write streams L2-resident. RMAT's skew puts the
	// most keys in bucket 0 (small min ids): about 7% of a scale-18
	// Graph500 round, so it is handed out first and bounds the balance
	// only beyond ~14 workers.
	rmatDedupMaxBucketBits = 12
	// rmatDedupInsertionMax is the bucket size below which insertion
	// sort beats clearing radix count tables.
	rmatDedupInsertionMax = 32
)

// appendDeduped resolves a round of unpacked candidates (the Noise
// path): it packs (tails[i], heads[i]) into canonical keys and resolves
// them exactly as appendDedupedPacked does.
func (d *edgeDedup) appendDeduped(et *table.EdgeTable, tails, heads []int64, n, limit int64, workers int) {
	if cap(d.keys) < len(tails) {
		d.keys = make([]uint64, len(tails))
	}
	keys := d.keys[:len(tails)]
	for i := range tails {
		keys[i] = packEdgeKey(tails[i], heads[i])
	}
	d.appendDedupedPacked(et, keys, n, limit, workers)
}

// appendDedupedPacked resolves one round of packed candidate keys:
// self-loops (min == max) and keys with an endpoint outside [0, n) are
// dropped, and the distinct keys not yet in the accepted set —
// duplicates within the round or against any earlier round lose —
// append to et in sorted key order, at most limit of them. Every
// winner, even one dropped by the limit, joins the accepted set: the
// limit only truncates the final round, after which no further round
// consults it. The slab is used as scratch and its content is lost.
// The result is the same for every worker count.
func (d *edgeDedup) appendDedupedPacked(et *table.EdgeTable, slab []uint64, n, limit int64, workers int) {
	s := scaleFor(n) // every in-range id is < 2^s
	keyBits := 2 * s
	bucketBits := min(uint(bits.Len(uint(len(slab))>>rmatDedupBucketLog)), rmatDedupMaxBucketBits, keyBits)
	shift := keyBits - bucketBits
	nb := 1 << bucketBits
	nChunks := (len(slab) + rmatShardSize - 1) / rmatShardSize

	// 1. Count, prefix-sum and scatter into buckets. counts holds one
	// row of nb per chunk; after the prefix sum each entry is that
	// chunk's next write offset in the bucket.
	d.counts = resize(d.counts, nChunks*nb)
	counts := d.counts
	clear(counts)
	shardLoop(int64(len(slab)), workers, func(c int, lo, hi int64) {
		row := counts[c*nb : (c+1)*nb]
		for _, k := range slab[lo:hi] {
			if ck, ok := rmatCompactKey(k, n, s); ok {
				row[ck>>shift]++
			}
		}
	})
	d.bucketStart = resize(d.bucketStart, nb+1)
	bucketStart := d.bucketStart
	var total int32
	for b := 0; b < nb; b++ {
		bucketStart[b] = total
		for c := 0; c < nChunks; c++ {
			cnt := counts[c*nb+b]
			counts[c*nb+b] = total
			total += cnt
		}
	}
	bucketStart[nb] = total
	d.buf = resize(d.buf, int(total))
	buf := d.buf
	shardLoop(int64(len(slab)), workers, func(c int, lo, hi int64) {
		row := counts[c*nb : (c+1)*nb]
		for _, k := range slab[lo:hi] {
			if ck, ok := rmatCompactKey(k, n, s); ok {
				b := ck >> shift
				buf[row[b]] = ck
				row[b]++
			}
		}
	})

	// 2. Per bucket: sort, scan runs against the accepted keys of the
	// bucket's range, compact the winners (as full keys) to the front
	// of the bucket.
	acc := d.accepted
	d.accLo = resize(d.accLo, nb+1)
	d.winStart = resize(d.winStart, nb+1)
	accLo, winStart := d.accLo, d.winStart
	accLo[nb] = len(acc)
	parDynamic(nb, workers, func() func(int) {
		var count [1 << rmatDedupMaxDigitBits]int32
		return func(b int) {
			lo, hi := bucketStart[b], bucketStart[b+1]
			sorted := sortBucket(buf[lo:hi], slab[lo:hi], shift, &count)
			aLo, _ := slices.BinarySearch(acc, rmatExpandKey(uint64(b)<<shift, s))
			aHi, _ := slices.BinarySearch(acc, rmatExpandKey(uint64(b+1)<<shift, s))
			accLo[b] = aLo
			bucketAcc := acc[aLo:aHi]
			out := buf[lo:hi]
			w, ai := 0, 0
			for i := 0; i < len(sorted); {
				ck := sorted[i]
				for i++; i < len(sorted) && sorted[i] == ck; i++ {
				}
				key := rmatExpandKey(ck, s)
				for ai < len(bucketAcc) && bucketAcc[ai] < key {
					ai++
				}
				if ai < len(bucketAcc) && bucketAcc[ai] == key {
					continue
				}
				// w counts the runs before this one, so it never passes
				// the read position: in-place compaction is safe.
				out[w] = key
				w++
			}
			winStart[b] = w // the count until the prefix sum below
		}
	})

	// 3. Place winners: the edge table gets the first limit of them in
	// bucket (= key) order, the next accepted set every one of them.
	wins := 0
	for b := 0; b < nb; b++ {
		c := winStart[b]
		winStart[b] = wins
		wins += c
	}
	winStart[nb] = wins
	emit := int(min(int64(wins), limit))
	base := len(et.Tail)
	et.Tail = slices.Grow(et.Tail, emit)[:base+emit]
	et.Head = slices.Grow(et.Head, emit)[:base+emit]
	need := len(acc) + wins
	if cap(d.merged) < need {
		d.merged = make([]uint64, 0, max(need, cap(acc)))
	}
	merged := d.merged[:need]
	parDynamic(nb, workers, func() func(int) {
		return func(b int) {
			ws, we := winStart[b], winStart[b+1]
			win := buf[bucketStart[b] : int(bucketStart[b])+we-ws]
			for i, key := range win[:max(0, min(we, emit)-ws)] {
				et.Tail[base+ws+i] = int64(key >> 32)
				et.Head[base+ws+i] = int64(key & 0xffffffff)
			}
			aLo, aHi := accLo[b], accLo[b+1]
			mergeKeys(merged[aLo+ws:aHi+we], acc[aLo:aHi], win)
		}
	})
	d.accepted, d.merged = merged, acc
}

// rmatCompactKey reports whether packed key k is a valid candidate
// (no self-loop, both ids below n) and returns its compact form
// min<<s|max, which orders like k but spends only 2s bits.
func rmatCompactKey(k uint64, n int64, s uint) (uint64, bool) {
	lo, hi := k>>32, k&0xffffffff
	if lo == hi || int64(hi) >= n {
		return 0, false
	}
	return lo<<s | hi, true
}

// rmatExpandKey inverts rmatCompactKey's packing. It is monotonic, so
// the compact bound of a bucket expands to the packed-key bound of the
// same range; the end bound 2^(2s) expands to 2^s<<32, above every
// valid key.
func rmatExpandKey(ck uint64, s uint) uint64 {
	return ck>>s<<32 | ck&(1<<s-1)
}

// rmatDedupMaxDigitBits bounds a bucket sort's radix digit: 2048
// counters (8 KiB) stay L1-resident.
const rmatDedupMaxDigitBits = 11

// sortBucket sorts keys, whose bits at and above sortBits are all
// equal, with an LSD radix sort, ping-ponging with tmp (same length);
// it returns whichever of the two holds the result. A digit on which
// all keys agree costs its counting pass only. Small buckets use
// insertion sort; digit width adapts to the bucket size so small
// buckets clear small count tables.
func sortBucket(keys, tmp []uint64, sortBits uint, count *[1 << rmatDedupMaxDigitBits]int32) []uint64 {
	n := len(keys)
	if n <= rmatDedupInsertionMax {
		for i := 1; i < n; i++ {
			k := keys[i]
			j := i
			for ; j > 0 && keys[j-1] > k; j-- {
				keys[j] = keys[j-1]
			}
			keys[j] = k
		}
		return keys
	}
	if sortBits == 0 {
		return keys
	}
	maxDigit := uint(rmatDedupMaxDigitBits)
	if n < 1<<12 {
		maxDigit = 8
	}
	passes := (sortBits + maxDigit - 1) / maxDigit
	digitBits := (sortBits + passes - 1) / passes
	mask := uint64(1)<<digitBits - 1
	src, dst := keys, tmp
	for shift := uint(0); shift < sortBits; shift += digitBits {
		cnt := count[:mask+1]
		clear(cnt)
		for _, k := range src {
			cnt[(k>>shift)&mask]++
		}
		if cnt[(src[0]>>shift)&mask] == int32(n) {
			continue // every key has the same digit
		}
		var sum int32
		for i, c := range cnt {
			cnt[i] = sum
			sum += c
		}
		for _, k := range src {
			digit := (k >> shift) & mask
			dst[cnt[digit]] = k
			cnt[digit]++
		}
		src, dst = dst, src
	}
	return src
}

// mergeKeys merges the sorted, disjoint slices a and b into dst
// (len(a)+len(b) long).
func mergeKeys(dst, a, b []uint64) {
	i, j, w := 0, 0, 0
	for i < len(a) && j < len(b) {
		if a[i] < b[j] {
			dst[w] = a[i]
			i++
		} else {
			dst[w] = b[j]
			j++
		}
		w++
	}
	w += copy(dst[w:], a[i:])
	copy(dst[w:], b[j:])
}

// resize returns a slice of length n, reusing buf's backing array when
// it is large enough. The content is unspecified.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}
