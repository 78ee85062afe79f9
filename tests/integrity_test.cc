// Checksum-layer tests: CRC-32C known-answer vectors, the hardware/
// software differential at every tail length, algorithm-id plumbing,
// and the manifest-hardening regressions (a bit-flipped or truncated
// manifest must be a parse failure, never a silently-zero table).
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dialga/dialga.h"
#include "gf/gf_simd.h"
#include "integrity/checksum.h"
#include "shard/shard_store.h"

namespace {

namespace fs = std::filesystem;

// --- CRC-32C algorithm ---------------------------------------------------

TEST(Crc32c, KnownAnswerVectors) {
  // RFC 3720 (iSCSI) test vectors for the Castagnoli polynomial.
  EXPECT_EQ(integrity::Crc32c(nullptr, 0), 0u);
  const char digits[] = "123456789";
  EXPECT_EQ(integrity::Crc32c(digits, 9), 0xE3069283u);
  std::vector<unsigned char> zeros(32, 0x00);
  EXPECT_EQ(integrity::Crc32c(zeros.data(), zeros.size()), 0x8A9136AAu);
  std::vector<unsigned char> ones(32, 0xFF);
  EXPECT_EQ(integrity::Crc32c(ones.data(), ones.size()), 0x62A8AB43u);
}

TEST(Crc32c, SoftwareMatchesDispatchedAtEveryTailLength) {
  // The hardware path processes 8-byte words with a byte tail; every
  // length up to a few words exercises every tail configuration. When
  // the build or CPU lacks SSE4.2 both sides run software and the test
  // degenerates to self-consistency — still worth keeping as a guard
  // against accidental divergence of the two entry points.
  std::vector<unsigned char> buf(97);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<unsigned char>(i * 131 + 7);
  }
  for (std::size_t n = 0; n <= buf.size(); ++n) {
    EXPECT_EQ(integrity::Crc32c(buf.data(), n),
              integrity::Crc32cSoftware(buf.data(), n))
        << "length " << n;
  }
}

TEST(Crc32c, InterleavedKernelMatchesSoftwareAtEveryLengthAndOffset) {
  // The hardware kernel aligns to 8 bytes, runs three interleaved
  // chains over 3 x 8 KiB and 3 x 256 B blocks, then single words and
  // bytes: every length 0..4096 at every start offset 0..15 crosses
  // each of those boundaries.
  std::vector<unsigned char> buf(4096 + 16 + 8);
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  for (auto& b : buf) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    b = static_cast<unsigned char>(x);
  }
  // Start from an 8-aligned address so offset o really is misalignment o.
  const auto base_addr = reinterpret_cast<std::uintptr_t>(buf.data());
  const unsigned char* base = buf.data() + ((8 - base_addr % 8) % 8);
  std::size_t mismatches = 0;
  for (std::size_t off = 0; off < 16; ++off) {
    for (std::size_t n = 0; n <= 4096; ++n) {
      if (integrity::Crc32c(base + off, n) !=
          integrity::Crc32cSoftware(base + off, n)) {
        if (mismatches++ == 0) {
          ADD_FAILURE() << "first mismatch: offset " << off << " length " << n;
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0u);

  std::vector<unsigned char> big(32u << 20);
  for (std::size_t i = 0; i < big.size(); i += 8) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::memcpy(&big[i], &x, 8);
  }
  EXPECT_EQ(integrity::Crc32c(big.data(), big.size()),
            integrity::Crc32cSoftware(big.data(), big.size()));
}

TEST(Crc32c, ScalarIsaPinsSoftwarePath) {
  const gf::IsaLevel prev = gf::active_isa();
  gf::set_active_isa(gf::IsaLevel::kScalar);
  EXPECT_FALSE(integrity::Crc32cUsesHardware());
  const char data[] = "dialga";
  const std::uint32_t scalar_sum = integrity::Crc32c(data, 6);
  gf::set_active_isa(prev);
  // Cross-ISA bit-identical: whatever path the restored level selects
  // must produce the same value.
  EXPECT_EQ(integrity::Crc32c(data, 6), scalar_sum);
  EXPECT_EQ(scalar_sum, integrity::Crc32cSoftware(data, 6));
}

TEST(ChecksumAlgo, NamesRoundTrip) {
  using integrity::ChecksumAlgo;
  EXPECT_STREQ(integrity::algo_name(ChecksumAlgo::kFnv1a), "fnv1a");
  EXPECT_STREQ(integrity::algo_name(ChecksumAlgo::kCrc32c), "crc32c");
  EXPECT_EQ(integrity::parse_algo("fnv1a"), ChecksumAlgo::kFnv1a);
  EXPECT_EQ(integrity::parse_algo("crc32c"), ChecksumAlgo::kCrc32c);
  EXPECT_FALSE(integrity::parse_algo("md5").has_value());
  EXPECT_FALSE(integrity::parse_algo("").has_value());
}

TEST(ChecksumAlgo, TaggedChecksumDispatches) {
  const char data[] = "0123456789abcdef";
  EXPECT_EQ(integrity::Checksum(integrity::ChecksumAlgo::kFnv1a, data, 16),
            integrity::Fnv1a(data, 16));
  // CRC-32C stored zero-extended: high 32 bits empty.
  const std::uint64_t crc =
      integrity::Checksum(integrity::ChecksumAlgo::kCrc32c, data, 16);
  EXPECT_EQ(crc >> 32, 0u);
  EXPECT_EQ(static_cast<std::uint32_t>(crc), integrity::Crc32c(data, 16));
}

TEST(ChecksumAlgo, LegacyShardChecksumIsFnv1a) {
  const std::byte bytes[4] = {std::byte{1}, std::byte{2}, std::byte{3},
                              std::byte{4}};
  EXPECT_EQ(shard::Checksum(bytes, 4), integrity::Fnv1a(bytes, 4));
}

// --- Manifest versioning and hardening -----------------------------------

shard::Manifest MakeManifest() {
  shard::Manifest mf;
  mf.k = 4;
  mf.m = 2;
  mf.block_size = 64;
  mf.file_size = 200;
  mf.algo = integrity::kDefaultAlgo;
  mf.versioned = true;
  mf.shard_checksums = {11, 22, 33, 44, 55, 66};
  return mf;
}

TEST(ManifestVersioning, SerializeParseRoundTrip) {
  const shard::Manifest mf = MakeManifest();
  const auto back = shard::Manifest::parse(mf.serialize());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->algo, integrity::kDefaultAlgo);
  EXPECT_TRUE(back->versioned);
  EXPECT_EQ(back->k, mf.k);
  EXPECT_EQ(back->m, mf.m);
  EXPECT_EQ(back->shard_checksums, mf.shard_checksums);
}

TEST(ManifestVersioning, LegacyManifestParsesAsFnv1a) {
  // Pre-versioning generations: no algo line, no manifestsum line.
  const std::string legacy =
      "dialga-shard-v1\n"
      "k 4\nm 2\nblock 64\nsize 200\n"
      "shard 0 11\nshard 1 22\nshard 2 33\n"
      "shard 3 44\nshard 4 55\nshard 5 66\n";
  const auto mf = shard::Manifest::parse(legacy);
  ASSERT_TRUE(mf.has_value());
  EXPECT_EQ(mf->algo, integrity::ChecksumAlgo::kFnv1a);
  EXPECT_FALSE(mf->versioned);
  EXPECT_EQ(mf->shard_checksums.size(), 6u);
  EXPECT_EQ(mf->shard_checksums[2], 33u);
}

TEST(ManifestHardening, BitFlippedChecksumTableRejected) {
  std::string text = MakeManifest().serialize();
  // Flip one digit inside a shard checksum value.
  const std::size_t pos = text.find("shard 2 33");
  ASSERT_NE(pos, std::string::npos);
  text[pos + 8] = '4';  // 33 -> 43
  EXPECT_FALSE(shard::Manifest::parse(text).has_value());
}

TEST(ManifestHardening, EveryTruncationRejected) {
  // A versioned manifest cut anywhere — losing the sum line, half the
  // table, or a single trailing byte — must be a parse failure. (Very
  // short prefixes also fail, on the header check.)
  const std::string text = MakeManifest().serialize();
  for (std::size_t cut = 1; cut < text.size(); ++cut) {
    EXPECT_FALSE(shard::Manifest::parse(text.substr(0, cut)).has_value())
        << "prefix of " << cut << " bytes parsed";
  }
}

TEST(ManifestHardening, TrailingGarbageAfterSumRejected) {
  std::string text = MakeManifest().serialize();
  text += "shard 0 999\n";  // would escape the self-checksum
  EXPECT_FALSE(shard::Manifest::parse(text).has_value());
}

TEST(ManifestHardening, FlippedSumValueRejected) {
  std::string text = MakeManifest().serialize();
  const std::size_t pos = text.rfind("manifestsum ");
  ASSERT_NE(pos, std::string::npos);
  char& digit = text[pos + 12];
  digit = digit == '9' ? '1' : static_cast<char>(digit + 1);
  EXPECT_FALSE(shard::Manifest::parse(text).has_value());
}

TEST(ManifestHardening, AlgoWithoutSumRejected) {
  // Declaring an algorithm obliges the self-checksum; a truncated
  // manifest that kept the algo line but lost the sum must not parse.
  std::string text = MakeManifest().serialize();
  const std::size_t pos = text.rfind("manifestsum ");
  ASSERT_NE(pos, std::string::npos);
  text.resize(pos);
  EXPECT_FALSE(shard::Manifest::parse(text).has_value());
}

TEST(ManifestHardening, UnknownAlgoRejected) {
  std::string text = MakeManifest().serialize();
  const std::size_t pos = text.find("algo crc32c");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 11, "algo sha999");
  EXPECT_FALSE(shard::Manifest::parse(text).has_value());
}

// --- Cross-generation compatibility on disk -------------------------------

void WriteFileBytes(const fs::path& p, const std::string& s) {
  std::ofstream(p, std::ios::binary) << s;
}

std::string ReadFileBytes(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

TEST(CrossGeneration, Fnv1aGenerationStillVerifiesAndDecodes) {
  const fs::path dir =
      fs::temp_directory_path() / "dialga_integrity_fnv_gen";
  fs::remove_all(dir);
  const fs::path input = dir / "input.bin";
  const fs::path output = dir / "output.bin";
  fs::create_directories(dir);
  std::string payload(3000, '\0');
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<char>(i * 37 + 5);
  }
  WriteFileBytes(input, payload);

  const dialga::DialgaCodec codec(4, 2);
  shard::ShardStore store(codec, 256);
  store.set_checksum_algo(integrity::ChecksumAlgo::kFnv1a);
  ASSERT_TRUE(store.encode_file(input, dir).ok());

  // Strip the version lines to regress the manifest to the legacy
  // format an old generation would have written.
  std::string text = ReadFileBytes(dir / "manifest.txt");
  const std::size_t apos = text.find("algo fnv1a\n");
  ASSERT_NE(apos, std::string::npos);
  text.erase(apos, 11);
  const std::size_t spos = text.rfind("manifestsum ");
  ASSERT_NE(spos, std::string::npos);
  text.resize(spos);
  WriteFileBytes(dir / "manifest.txt", text);

  // A new store (defaulting to CRC-32C for writes) still verifies and
  // decodes the FNV generation because reads honour the manifest.
  shard::ShardStore reader(codec, 256);
  EXPECT_TRUE(reader.verify(dir).empty());
  ASSERT_TRUE(reader.decode_file(dir, output).ok());
  EXPECT_EQ(ReadFileBytes(output), payload);
  fs::remove_all(dir);
}

TEST(CrossGeneration, Crc32cManifestRecordsAlgorithm) {
  const fs::path dir =
      fs::temp_directory_path() / "dialga_integrity_crc_gen";
  fs::remove_all(dir);
  const fs::path input = dir / "input.bin";
  fs::create_directories(dir);
  WriteFileBytes(input, std::string(1000, 'x'));

  const dialga::DialgaCodec codec(4, 2);
  shard::ShardStore store(codec, 256);
  ASSERT_TRUE(store.encode_file(input, dir).ok());
  const std::string text = ReadFileBytes(dir / "manifest.txt");
  EXPECT_NE(text.find("algo crc32c\n"), std::string::npos);
  EXPECT_NE(text.find("manifestsum "), std::string::npos);
  EXPECT_TRUE(store.verify(dir).empty());
  fs::remove_all(dir);
}

}  // namespace
