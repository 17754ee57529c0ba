package diskseg

import (
	"encoding/binary"
	"hash/crc32"
)

// FeatureRow and HashtagBit expose the feature-column layout to the
// fault suite, which patches single rows of a valid image.
const (
	FeatureRow = featureRow
	HashtagBit = hashtagBit
)

// FeatureSection returns the byte span of a valid image's feature
// column (rows, then mention pool).
func FeatureSection(data []byte) (off, n int) {
	_, _, _, _, secs, err := parseHeader(data)
	if err != nil {
		panic(err)
	}
	return secs[secFeatures].off, secs[secFeatures].n
}

// Reseal recomputes every section CRC and the header CRC of a patched
// image in place, so a structural defect reaches the structural checks
// instead of tripping the checksum in front of them.
func Reseal(data []byte) {
	for i := 0; i < numSections; i++ {
		p := 28 + 20*i
		off := binary.LittleEndian.Uint64(data[p:])
		n := binary.LittleEndian.Uint64(data[p+8:])
		binary.LittleEndian.PutUint32(data[p+16:], crc32.ChecksumIEEE(data[off:off+n]))
	}
	binary.LittleEndian.PutUint32(data[headerSize-4:], crc32.ChecksumIEEE(data[:headerSize-4]))
}
