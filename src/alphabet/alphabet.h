// Alphabet: maps between external characters and dense internal codes.
//
// The paper indexes DNA (sigma = 4, 2 bits/char) and proteins
// (sigma = 20, 5 bits/char). The library additionally supports arbitrary
// byte alphabets so the index can be used on plain text.

#ifndef SPINE_ALPHABET_ALPHABET_H_
#define SPINE_ALPHABET_ALPHABET_H_

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "common/status.h"

namespace spine {

// Dense code for a character; valid codes are < Alphabet::size().
using Code = uint8_t;

inline constexpr Code kInvalidCode = 0xff;

class Alphabet {
 public:
  enum class Kind { kDna, kProtein, kByte, kAscii };

  // Factory functions for the supported alphabets.
  static Alphabet Dna();      // ACGT (case-insensitive)
  static Alphabet Protein();  // the 20 standard amino-acid letters
  static Alphabet Byte();     // bytes 0x00..0xFE (0xFF is the invalid sentinel)
  // Printable ASCII + tab/newline/CR (98 symbols, 7 bits/code): lets
  // the compact index (whose rib slots hold 7-bit character labels)
  // cover plain text.
  static Alphabet Ascii();
  // The alphabet a persisted kind code (static_cast<uint32_t>(kind()))
  // names; nullopt for codes no Kind has.
  static std::optional<Alphabet> FromKind(uint32_t code);

  Kind kind() const { return kind_; }
  // Number of distinct codes.
  uint32_t size() const { return size_; }
  // Bits needed to store one code (2 for DNA, 5 for protein, 8 for byte).
  uint32_t bits_per_code() const { return bits_; }

  // Returns kInvalidCode for characters outside the alphabet.
  Code Encode(char c) const {
    return encode_[static_cast<uint8_t>(c)];
  }
  char Decode(Code code) const { return decode_[code]; }

  // Encodes a whole string; fails on the first out-of-alphabet character.
  Status EncodeString(std::string_view s, std::string* codes) const;

  // Human-readable name ("dna", "protein", "byte", "ascii").
  const char* name() const;

 private:
  Alphabet(Kind kind, std::string_view letters, bool fold_case);

  Kind kind_;
  uint32_t size_;
  uint32_t bits_;
  std::array<Code, 256> encode_;
  std::array<char, 256> decode_;
};

}  // namespace spine

#endif  // SPINE_ALPHABET_ALPHABET_H_
