// Tests for the alphabet and packed-string substrate.

#include "alphabet/alphabet.h"

#include <cstdint>
#include <optional>
#include <string>

#include <gtest/gtest.h>

#include "alphabet/packed_string.h"
#include "common/rng.h"

namespace spine {
namespace {

TEST(AlphabetTest, DnaBasics) {
  Alphabet dna = Alphabet::Dna();
  EXPECT_EQ(dna.size(), 4u);
  EXPECT_EQ(dna.bits_per_code(), 2u);
  EXPECT_EQ(dna.kind(), Alphabet::Kind::kDna);
  EXPECT_STREQ(dna.name(), "dna");
  for (char c : std::string("ACGT")) {
    Code code = dna.Encode(c);
    ASSERT_NE(code, kInvalidCode);
    EXPECT_EQ(dna.Decode(code), c);
  }
  // Case folding.
  EXPECT_EQ(dna.Encode('a'), dna.Encode('A'));
  EXPECT_EQ(dna.Encode('t'), dna.Encode('T'));
  // Out of alphabet.
  EXPECT_EQ(dna.Encode('N'), kInvalidCode);
  EXPECT_EQ(dna.Encode('$'), kInvalidCode);
}

TEST(AlphabetTest, ProteinBasics) {
  Alphabet protein = Alphabet::Protein();
  EXPECT_EQ(protein.size(), 20u);
  EXPECT_EQ(protein.bits_per_code(), 5u);
  EXPECT_NE(protein.Encode('W'), kInvalidCode);
  EXPECT_NE(protein.Encode('m'), kInvalidCode);
  // B, J, O, U, X, Z are not standard residues.
  for (char c : std::string("BJOUXZ")) {
    EXPECT_EQ(protein.Encode(c), kInvalidCode) << c;
  }
  // All 20 codes are distinct.
  std::set<Code> codes;
  for (char c : std::string("ACDEFGHIKLMNPQRSTVWY")) {
    codes.insert(protein.Encode(c));
  }
  EXPECT_EQ(codes.size(), 20u);
}

TEST(AlphabetTest, ByteCoversAllButTheSentinel) {
  Alphabet byte = Alphabet::Byte();
  EXPECT_EQ(byte.size(), 255u);
  EXPECT_EQ(byte.bits_per_code(), 8u);
  for (int c = 0; c < 255; ++c) {
    Code code = byte.Encode(static_cast<char>(c));
    EXPECT_EQ(code, static_cast<Code>(c));
    EXPECT_EQ(byte.Decode(code), static_cast<char>(c));
  }
  // 0xFF is reserved as the invalid sentinel.
  EXPECT_EQ(byte.Encode(static_cast<char>(0xff)), kInvalidCode);
}

TEST(AlphabetTest, AsciiCoversTextFitsCompactLimit) {
  Alphabet ascii = Alphabet::Ascii();
  EXPECT_LE(ascii.size(), 127u);  // fits the compact layout's 7-bit CL
  EXPECT_EQ(ascii.bits_per_code(), 7u);
  for (char c : std::string("Hello, World! 42\t\n")) {
    EXPECT_NE(ascii.Encode(c), kInvalidCode) << static_cast<int>(c);
  }
  EXPECT_EQ(ascii.Encode(static_cast<char>(0x01)), kInvalidCode);
  EXPECT_EQ(ascii.Encode(static_cast<char>(0x80)), kInvalidCode);
  // Codes are distinct and decode back.
  Code code = ascii.Encode('q');
  EXPECT_EQ(ascii.Decode(code), 'q');
}

TEST(AlphabetTest, EncodeString) {
  Alphabet dna = Alphabet::Dna();
  std::string codes;
  Status status = dna.EncodeString("ACgt", &codes);
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(codes.size(), 4u);
  status = dna.EncodeString("ACXT", &codes);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("offset 2"), std::string::npos);
}

// Persisted kind codes decode back to the alphabet that wrote them;
// codes no Kind has decode to nothing.
TEST(AlphabetTest, FromKindRoundTripsEveryCode) {
  for (uint32_t code = 0; code <= 3; ++code) {
    const std::optional<Alphabet> alphabet = Alphabet::FromKind(code);
    ASSERT_TRUE(alphabet.has_value()) << code;
    EXPECT_EQ(static_cast<uint32_t>(alphabet->kind()), code);
  }
  EXPECT_FALSE(Alphabet::FromKind(4).has_value());
  EXPECT_FALSE(Alphabet::FromKind(UINT32_MAX).has_value());
}

class PackedStringTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(PackedStringTest, RoundTripsRandomCodes) {
  const uint32_t bits = GetParam();
  PackedString packed(bits);
  Rng rng(bits * 17);
  std::vector<Code> expected;
  for (int i = 0; i < 5000; ++i) {
    Code code = static_cast<Code>(rng.Below(1ull << bits));
    expected.push_back(code);
    packed.Append(code);
    ASSERT_EQ(packed.size(), static_cast<uint64_t>(i + 1));
  }
  for (int i = 0; i < 5000; ++i) {
    ASSERT_EQ(packed.Get(i), expected[i]) << "bits " << bits << " at " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(AllWidths, PackedStringTest,
                         ::testing::Values(1u, 2u, 3u, 5u, 7u, 8u),
                         [](const auto& info) {
                           return "bits" + std::to_string(info.param);
                         });

TEST(PackedStringDetail, MemoryIsBitPacked) {
  PackedString packed(2);
  for (int i = 0; i < 32000; ++i) packed.Append(static_cast<Code>(i & 3));
  // 32000 2-bit codes = 8000 bytes; allow vector growth slack.
  EXPECT_LE(packed.MemoryBytes(), 16000u);
}

TEST(PackedStringDetail, RestoreFromWords) {
  PackedString a(5);
  for (int i = 0; i < 1000; ++i) a.Append(static_cast<Code>(i % 20));
  PackedString b(5);
  b.RestoreFromWords(a.words(), a.size());
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(b.Get(i), a.Get(i));
}

}  // namespace
}  // namespace spine
