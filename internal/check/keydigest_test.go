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
// distinct visited-set key bytes — the machine encoding (orbit-canonical
// under opts.Symmetry) plus the folded crash count — sorted and each
// prefixed with its length, together with the number of distinct keys.
// The walk must prove the subject, so the digest covers the whole
// reachable state space.
func keyBytesDigest(s *Subject, model machine.Model, opts Opts) (string, int, error) {
	k := s.newKeyer(opts)
	seen := make(map[string]struct{}, 1024)
	keyOf := func(c *machine.Config, crashes, maxCrashes int, mon uint64) (machine.StateKey, error) {
		key, err := k.key(c, crashes, maxCrashes, mon)
		if err == nil {
			seen[string(k.buf)] = struct{}{}
		}
		return key, err
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
