#include "runner/inputs.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "alphabet/alphabet.h"
#include "common/rng.h"
#include "seq/generator.h"

namespace perfbench {
namespace {

using spine::Query;
using spine::Rng;

constexpr char kBases[] = "ACGT";
// Stream prefix digested by InputHash.
constexpr uint64_t kHashedQueries = 4096;
constexpr uint64_t kHashedDocs = 64;

const spine::Alphabet& Dna() {
  static const spine::Alphabet dna = spine::Alphabet::Dna();
  return dna;
}

// Stream ids for SubSeed, so no two generators share a sequence.
enum Stream : uint64_t {
  kCorpusStream = 1,
  kFamilyStream = 2,
  kQueryStream = 3,
  kServeStream = 4,
  kScheduleStream = 5,
  kDocStream = 6,
};

std::string RandomDna(Rng& rng, uint64_t len) {
  std::string s(len, 'A');
  for (char& c : s) c = kBases[rng.Below(4)];
  return s;
}

std::string Genome(uint64_t seed, uint64_t length, double repeat_fraction) {
  spine::seq::GeneratorOptions options;
  options.length = length;
  options.seed = SubSeed(seed, kCorpusStream, 0);
  options.repeat_fraction = repeat_fraction;
  options.mean_repeat_len = 2000;
  options.mutation_rate = 0.01;
  return spine::seq::GenerateSequence(Dna(), options);
}

// A substring of `text` with `len` characters at a random position.
std::string Slice(Rng& rng, const std::string& text, uint64_t len) {
  return text.substr(rng.Below(text.size() - len + 1), len);
}

// A sequencing-style read: substitutions plus short indels.
std::string Read(Rng& rng, const std::string& text, uint64_t len) {
  spine::seq::MutateOptions options;
  options.seed = rng.Next();
  options.substitution_rate = 0.02;
  options.indel_rate = 0.002;
  options.mean_indel_len = 3;
  return spine::seq::MutateCopy(Dna(), Slice(rng, text, len), options);
}

void Substitute(Rng& rng, std::string* s, uint32_t count) {
  std::vector<uint64_t> done;
  while (done.size() < count) {
    const uint64_t pos = rng.Below(s->size());
    if (std::find(done.begin(), done.end(), pos) != done.end()) continue;
    done.push_back(pos);
    const char old = (*s)[pos];
    char next = old;
    while (next == old) next = kBases[rng.Below(4)];
    (*s)[pos] = next;
  }
}

// One planted edit (substitution, insertion or deletion) away from
// the original.
void PlantEdit(Rng& rng, std::string* s) {
  const uint64_t pos = 1 + rng.Below(s->size() - 2);
  switch (rng.Below(3)) {
    case 0: Substitute(rng, s, 1); break;
    case 1: s->insert(s->begin() + pos, kBases[rng.Below(4)]); break;
    default: s->erase(s->begin() + pos); break;
  }
}

// occurrence-search genome: background sequence plus three interspersed
// repeat families (copy counts 10^3, 10^2, 10) written over it, each
// copy with 2% substitutions — the source of findall patterns with
// hundreds of occurrences.
std::string FamilyGenome(uint64_t seed, std::vector<RepeatFamily>* families) {
  std::string text = Genome(seed, kOccurrenceChars, 0.3);
  Rng rng(SubSeed(seed, kFamilyStream, 0));
  const struct {
    uint32_t len, copies;
  } shapes[] = {{120, 1000}, {200, 100}, {300, 10}};
  for (const auto& shape : shapes) {
    RepeatFamily family;
    family.consensus = RandomDna(rng, shape.len);
    family.copies = shape.copies;
    for (uint32_t c = 0; c < shape.copies; ++c) {
      std::string copy = family.consensus;
      for (char& ch : copy) {
        if (rng.Chance(0.02)) ch = kBases[rng.Below(4)];
      }
      const uint64_t pos = rng.Below(text.size() - copy.size());
      text.replace(pos, copy.size(), copy);
    }
    families->push_back(std::move(family));
  }
  return text;
}

Query ReadMappingQuery(const Inputs& in, uint64_t i) {
  Rng rng(SubSeed(in.seed, kQueryStream, i));
  const uint64_t r = rng.Below(100);
  if (r < 30) {
    // 24-mer probes, about half of them absent (a random 24-mer occurs
    // in a few Mbp with probability ~1e-8).
    return Query::Contains(rng.Chance(0.5) ? Slice(rng, in.corpus, 24)
                                           : RandomDna(rng, 24));
  }
  std::string read = Read(rng, in.corpus, rng.Between(150, 400));
  if (r < 70) return Query::MaximalMatches(std::move(read), 20, false);
  return Query::MatchingStats(std::move(read));
}

Query OccurrenceQuery(const Inputs& in, uint64_t i) {
  Rng rng(SubSeed(in.seed, kQueryStream, i));
  const uint64_t r = rng.Below(100);
  if (r < 15) return Query::FindAll(RandomDna(rng, 20));  // absent
  if (r < 30) return Query::FindAll(Slice(rng, in.corpus, 24));  // unique
  if (r < 55) {
    const RepeatFamily& family = in.families[rng.Below(in.families.size())];
    return Query::FindAll(Slice(rng, family.consensus, rng.Between(12, 16)));
  }
  if (r < 95) {
    std::string pattern = Slice(rng, in.corpus, rng.Between(32, 64));
    if (r < 70) {
      Substitute(rng, &pattern, 1);
      return Query::Mismatch(std::move(pattern), 1);
    }
    if (r < 80) {
      Substitute(rng, &pattern, 2);
      return Query::Mismatch(std::move(pattern), 2);
    }
    PlantEdit(rng, &pattern);
    return Query::EditDistance(std::move(pattern), 1);
  }
  // Seeds of 8 / 3 = 2 characters: the planner routes these to the
  // O(n*m) verification scan.
  std::string pattern = Slice(rng, in.corpus, 8);
  Substitute(rng, &pattern, 1);
  return Query::Mismatch(std::move(pattern), 2);
}

// The serve-skewed query set: only the microsecond exact kinds.
std::vector<Query> ServeDistinct(const Inputs& in) {
  std::vector<Query> queries;
  queries.reserve(kServeDistinct);
  for (uint32_t i = 0; i < kServeDistinct; ++i) {
    Rng rng(SubSeed(in.seed, kServeStream, i));
    const uint64_t r = rng.Below(100);
    if (r < 40) {
      queries.push_back(Query::Contains(rng.Chance(0.5)
                                            ? Slice(rng, in.corpus, 24)
                                            : RandomDna(rng, 24)));
    } else if (r < 70) {
      queries.push_back(
          Query::MatchingStats(Read(rng, in.corpus, rng.Between(48, 96))));
    } else {
      queries.push_back(Query::MaximalMatches(
          Read(rng, in.corpus, rng.Between(100, 200)), 20, false));
    }
  }
  return queries;
}

// Zipf(s) ranks over the distinct set, by inverse CDF.
std::vector<uint32_t> ZipfSchedule(uint64_t seed, uint64_t count) {
  std::vector<double> cdf(kServeDistinct);
  double total = 0;
  for (uint32_t r = 0; r < kServeDistinct; ++r) {
    total += 1.0 / std::pow(r + 1.0, kServeZipfS);
    cdf[r] = total;
  }
  Rng rng(SubSeed(seed, kScheduleStream, 0));
  std::vector<uint32_t> ranks(count);
  for (uint32_t& rank : ranks) {
    const double u = rng.NextDouble() * total;
    rank = static_cast<uint32_t>(
        std::min<size_t>(std::lower_bound(cdf.begin(), cdf.end(), u) -
                             cdf.begin(),
                         kServeDistinct - 1));
  }
  return ranks;
}

// FNV-1a, 64 bit.
struct Digest {
  uint64_t h = 0xcbf29ce484222325ull;
  void Bytes(const void* data, size_t len) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < len; ++i) {
      h ^= p[i];
      h *= 0x100000001b3ull;
    }
  }
  void U64(uint64_t v) { Bytes(&v, sizeof(v)); }
  void Str(const std::string& s) {
    U64(s.size());
    Bytes(s.data(), s.size());
  }
  void Q(const Query& q) {
    U64(static_cast<uint64_t>(q.kind));
    U64(q.min_len);
    U64(q.expand_occurrences ? 1 : 0);
    U64(q.max_errors);
    U64(q.deadline_ms);
    Str(q.pattern);
  }
};

}  // namespace

uint64_t SubSeed(uint64_t seed, uint64_t stream, uint64_t index) {
  Rng rng(seed * 0x9e3779b97f4a7c15ull ^ (stream << 56) ^ index);
  rng.Next();
  return rng.Next();
}

bool KnownWorkload(const std::string& workload) {
  return workload == "read-mapping" || workload == "occurrence-search" ||
         workload == "serve-skewed" || workload == "ingest";
}

Inputs MakeInputs(const std::string& workload, uint64_t seed,
                  uint64_t schedule_len) {
  Inputs in;
  in.workload = workload;
  in.seed = seed;
  if (workload == "read-mapping") {
    in.corpus = Genome(seed, kReadMappingChars, 0.5);
  } else if (workload == "occurrence-search") {
    in.corpus = FamilyGenome(seed, &in.families);
  } else if (workload == "serve-skewed") {
    in.corpus = Genome(seed, kServeChars, 0.5);
    in.distinct = ServeDistinct(in);
    in.schedule = ZipfSchedule(seed, schedule_len);
  }
  return in;
}

Query StreamQuery(const Inputs& inputs, uint64_t i) {
  return inputs.workload == "read-mapping" ? ReadMappingQuery(inputs, i)
                                           : OccurrenceQuery(inputs, i);
}

std::string IngestDocument(uint64_t seed, uint64_t j) {
  spine::seq::GeneratorOptions options;
  options.length = kIngestDocChars;
  options.seed = SubSeed(seed, kDocStream, j);
  options.repeat_fraction = 0.2;
  options.mean_repeat_len = 200;
  return spine::seq::GenerateSequence(Dna(), options);
}

std::string InputHash(const Inputs& in) {
  Digest d;
  d.Str(in.workload);
  d.Str(in.corpus);
  for (const RepeatFamily& f : in.families) {
    d.Str(f.consensus);
    d.U64(f.copies);
  }
  for (const Query& q : in.distinct) d.Q(q);
  for (uint32_t rank : in.schedule) d.U64(rank);
  if (in.workload == "read-mapping" || in.workload == "occurrence-search") {
    for (uint64_t i = 0; i < kHashedQueries; ++i) d.Q(StreamQuery(in, i));
  }
  if (in.workload == "ingest") {
    for (uint64_t j = 0; j < kHashedDocs; ++j) {
      d.Str(IngestDocument(in.seed, j));
    }
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(d.h));
  return buf;
}

}  // namespace perfbench
