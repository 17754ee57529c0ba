package diskseg

import (
	"encoding/binary"
	"hash/crc32"
)

// FeatureRow and HashtagBit expose the feature-column layout to the
// fault suite, which patches single rows of a valid image; the Sec
// constants name the sections it patches.
const (
	FeatureRow = featureRow
	HashtagBit = hashtagBit

	SecPostings = secPostings
	SecTweets   = secTweets
	SecFeatures = secFeatures
)

// Section returns the byte span of one section of a valid image.
func Section(data []byte, sec int) (off, n int) {
	_, _, _, _, secs, err := parseHeader(data)
	if err != nil {
		panic(err)
	}
	return secs[sec].off, secs[sec].n
}

// Reseal recomputes every section CRC and the header CRC of a patched
// image in place, so a structural defect reaches the structural checks
// instead of tripping the checksum in front of them. A section whose
// span lies outside the image, or an image too short for a header, is
// left as it is.
func Reseal(data []byte) {
	if len(data) < headerSize {
		return
	}
	for i := 0; i < numSections; i++ {
		p := 28 + 20*i
		off := binary.LittleEndian.Uint64(data[p:])
		n := binary.LittleEndian.Uint64(data[p+8:])
		if off > uint64(len(data)) || n > uint64(len(data))-off {
			continue
		}
		binary.LittleEndian.PutUint32(data[p+16:], crc32.ChecksumIEEE(data[off:off+n]))
	}
	binary.LittleEndian.PutUint32(data[headerSize-4:], crc32.ChecksumIEEE(data[:headerSize-4]))
}
