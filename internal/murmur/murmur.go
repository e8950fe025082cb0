// Package murmur implements MurmurHash3 x64_128 with seed 0, Austin
// Appleby's reference algorithm: the 128-bit hash behind the model
// checker's state keys. It allocates nothing and uses only the standard
// library.
package murmur

import (
	"encoding/binary"
	"math/bits"
)

// Multipliers of the reference implementation.
const (
	c1 = 0x87c37b91114253d5
	c2 = 0x4cf5ad432745937f
)

// Sum128 returns the MurmurHash3 x64_128 hash of b with seed 0 as its two
// 64-bit halves, h1 first. The input is mixed 16 bytes at a time.
func Sum128(b []byte) (h1, h2 uint64) {
	n := uint64(len(b))
	for ; len(b) >= 16; b = b[16:] {
		k1 := binary.LittleEndian.Uint64(b)
		k2 := binary.LittleEndian.Uint64(b[8:])
		h1 ^= mix1(k1)
		h1 = bits.RotateLeft64(h1, 27) + h2
		h1 = h1*5 + 0x52dce729
		h2 ^= mix2(k2)
		h2 = bits.RotateLeft64(h2, 31) + h1
		h2 = h2*5 + 0x38495ab5
	}
	// Tail: up to 15 bytes, little-endian into k1 (bytes 0-7) and k2
	// (bytes 8-14).
	var k1, k2 uint64
	for i := len(b) - 1; i >= 8; i-- {
		k2 = k2<<8 | uint64(b[i])
	}
	for i := min(len(b), 8) - 1; i >= 0; i-- {
		k1 = k1<<8 | uint64(b[i])
	}
	if len(b) > 8 {
		h2 ^= mix2(k2)
	}
	if len(b) > 0 {
		h1 ^= mix1(k1)
	}
	h1 ^= n
	h2 ^= n
	h1 += h2
	h2 += h1
	h1 = fmix(h1)
	h2 = fmix(h2)
	h1 += h2
	h2 += h1
	return h1, h2
}

func mix1(k uint64) uint64 {
	return bits.RotateLeft64(k*c1, 31) * c2
}

func mix2(k uint64) uint64 {
	return bits.RotateLeft64(k*c2, 33) * c1
}

// fmix is the finalizer that avalanches every input bit.
func fmix(k uint64) uint64 {
	k ^= k >> 33
	k *= 0xff51afd7ed558ccd
	k ^= k >> 33
	k *= 0xc4ceb9fe1a85ec53
	k ^= k >> 33
	return k
}
