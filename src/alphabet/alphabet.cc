#include "alphabet/alphabet.h"

#include <cctype>

#include "common/check.h"

namespace spine {

namespace {

uint32_t BitsFor(uint32_t size) {
  uint32_t bits = 1;
  while ((1u << bits) < size) ++bits;
  return bits;
}

}  // namespace

Alphabet Alphabet::Dna() { return Alphabet(Kind::kDna, "ACGT", true); }

Alphabet Alphabet::Protein() {
  return Alphabet(Kind::kProtein, "ACDEFGHIKLMNPQRSTVWY", true);
}

Alphabet Alphabet::Byte() { return Alphabet(Kind::kByte, {}, false); }

Alphabet Alphabet::Ascii() {
  std::string letters = "\t\n\r";
  for (char c = ' '; c <= '~'; ++c) letters.push_back(c);
  return Alphabet(Kind::kAscii, letters, false);
}

std::optional<Alphabet> Alphabet::FromKind(uint32_t code) {
  switch (code) {
    case static_cast<uint32_t>(Kind::kDna): return Dna();
    case static_cast<uint32_t>(Kind::kProtein): return Protein();
    case static_cast<uint32_t>(Kind::kByte): return Byte();
    case static_cast<uint32_t>(Kind::kAscii): return Ascii();
  }
  return std::nullopt;
}

Alphabet::Alphabet(Kind kind, std::string_view letters, bool fold_case)
    : kind_(kind) {
  encode_.fill(kInvalidCode);
  decode_.fill('?');
  if (kind == Kind::kByte) {
    // 0xFF is reserved as the kInvalidCode sentinel.
    size_ = 255;
    for (int i = 0; i < 255; ++i) {
      encode_[i] = static_cast<Code>(i);
      decode_[i] = static_cast<char>(i);
    }
  } else {
    SPINE_CHECK(letters.size() < 256);
    size_ = static_cast<uint32_t>(letters.size());
    for (uint32_t i = 0; i < size_; ++i) {
      char c = letters[i];
      encode_[static_cast<uint8_t>(c)] = static_cast<Code>(i);
      if (fold_case) {
        encode_[static_cast<uint8_t>(
            std::tolower(static_cast<unsigned char>(c)))] =
            static_cast<Code>(i);
      }
      decode_[i] = c;
    }
  }
  bits_ = BitsFor(size_);
}

Status Alphabet::EncodeString(std::string_view s, std::string* codes) const {
  codes->clear();
  codes->reserve(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    Code code = Encode(s[i]);
    if (code == kInvalidCode) {
      return Status::InvalidArgument("character '" + std::string(1, s[i]) +
                                     "' at offset " + std::to_string(i) +
                                     " is not in the " + name() +
                                     " alphabet");
    }
    codes->push_back(static_cast<char>(code));
  }
  return Status::OK();
}

const char* Alphabet::name() const {
  switch (kind_) {
    case Kind::kDna:
      return "dna";
    case Kind::kProtein:
      return "protein";
    case Kind::kByte:
      return "byte";
    case Kind::kAscii:
      return "ascii";
  }
  return "unknown";
}

}  // namespace spine
