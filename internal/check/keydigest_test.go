package check

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"

	"tradingfences/internal/machine"
)

// keyBytesDigest walks every configuration the clone reference walker
// reaches from the subject's root and returns the SHA-256 digest of their
// distinct reference key bytes — the machine encoding plus the folded run
// state (appendRunState) — sorted and each prefixed with its length,
// together with the number of distinct keys. The walk must prove the
// subject, so the digest covers the whole reachable state space. The
// engine's key sums component hashes and produces no bytes, so the
// reference bytes are built here.
func keyBytesDigest(s *Subject, model machine.Model, opts Opts) (string, int, error) {
	var enc machine.KeyEncoder
	var buf []byte
	seen := make(map[string]struct{}, 1024)
	keyOf := func(c *machine.Config, crashes, maxCrashes int, mon uint64) (machine.StateKey, error) {
		key, err := s.stateKey(c, crashes, maxCrashes, mon)
		if err != nil {
			return key, err
		}
		if buf, err = enc.AppendStateBytes(c, buf[:0]); err != nil {
			return key, err
		}
		buf = appendRunState(buf, crashes, maxCrashes, s.Monitor != nil, mon)
		seen[string(buf)] = struct{}{}
		return key, nil
	}
	res, err := cloneWalk(bg(), s, model, opts, keyOf)
	if err != nil {
		return "", 0, err
	}
	if res.Violation || !res.Complete {
		return "", 0, fmt.Errorf("walk did not prove the subject: %+v", res)
	}
	keys := make([]string, 0, len(seen))
	for b := range seen {
		keys = append(keys, b)
	}
	sort.Strings(keys)
	h := sha256.New()
	var n [binary.MaxVarintLen64]byte
	for _, b := range keys {
		h.Write(n[:binary.PutUvarint(n[:], uint64(len(b)))])
		h.Write([]byte(b))
	}
	return hex.EncodeToString(h.Sum(nil)), len(keys), nil
}

// appendRunState appends the spent crash count (when the run has a crash
// budget) and the monitor state (when monitored) to self-delimiting state
// bytes: eight fixed-width monitor bytes last keep the encoding injective.
func appendRunState(buf []byte, crashes, maxCrashes int, monitored bool, mon uint64) []byte {
	if maxCrashes > 0 {
		buf = binary.AppendUvarint(buf, uint64(crashes))
	}
	if monitored {
		buf = binary.LittleEndian.AppendUint64(buf, mon)
	}
	return buf
}
