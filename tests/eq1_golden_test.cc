// Golden Eq. 1 pin: NC, MPro and Upper over a seeded grid must reproduce
// the recorded answers, certificate intervals, accrued cost and access
// count bit for bit. The grid crosses F in {avg, min}, m in {2, 3}, the
// cost regimes (cs, cr) in {(1, 2), (10, 1), (inf, 1)}, k in {1, 5, 50},
// and continuous vs. tie-heavy (1/16-quantized) scores, plus theta > 1,
// Extend, best-effort access caps and cost budgets.
//
// Costs are compared as exact doubles (hexfloat), never with a tolerance:
// any change to the engine's CPU-side machinery (heaps, memo keys,
// scratch buffers) must leave the access sequence, and therefore Eq. 1,
// untouched. Answers and certificates are folded into a 64-bit FNV-1a
// digest of their hexfloat text; a mismatch prints the full record.
//
// Regenerate (only when an intended behavior change moves Eq. 1):
//   NC_EQ1_GOLDEN_PRINT=1 ./build/tests/eq1_golden_test
// and paste the printed rows into kGolden.

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "access/source.h"
#include "baselines/mpro.h"
#include "baselines/upper.h"
#include "common/rng.h"
#include "core/engine.h"
#include "core/srg_policy.h"
#include "data/generator.h"
#include "scoring/scoring_function.h"

namespace nc {
namespace {

constexpr size_t kObjects = 150;

std::string Hex(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

uint64_t Fnv1a(const std::string& text) {
  uint64_t h = 1469598103934665603ull;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

Dataset MakeData(bool quantized, size_t m, uint64_t seed) {
  if (!quantized) {
    GeneratorOptions g;
    g.num_objects = kObjects;
    g.num_predicates = m;
    g.seed = seed;
    return GenerateDataset(g);
  }
  // Scores on a 1/16 grid: masses of exact ties at every level.
  Rng rng(seed);
  Dataset data(kObjects, m);
  for (ObjectId u = 0; u < kObjects; ++u) {
    for (PredicateId i = 0; i < m; ++i) {
      data.SetScore(u, i, static_cast<double>(rng.UniformInt(17)) / 16.0);
    }
  }
  return data;
}

// The exact, human-readable record of one run; the golden row keeps its
// cost and access count in clear and the rest as a digest.
struct Record {
  std::string cost;
  size_t accesses = 0;
  std::string answer;

  std::string Row(const std::string& label) const {
    char digest[20];
    std::snprintf(digest, sizeof(digest), "%016llx",
                  static_cast<unsigned long long>(Fnv1a(answer)));
    return label + " cost=" + cost + " accesses=" + std::to_string(accesses) +
           " digest=" + digest;
  }
};

Record Capture(const Status& status, const SourceSet& sources,
               const TopKResult& result) {
  Record r;
  r.cost = Hex(sources.accrued_cost());
  for (const size_t c : sources.stats().sorted_count) r.accesses += c;
  for (const size_t c : sources.stats().random_count) r.accesses += c;
  // Appends only: GCC 12 misreports `"literal" + std::string` under
  // -Wrestrict.
  r.answer = "status=";
  r.answer += std::to_string(static_cast<int>(status.code()));
  for (const TopKEntry& e : result.entries) {
    r.answer += ' ';
    r.answer += std::to_string(e.object);
    r.answer += ':';
    r.answer += Hex(e.score);
  }
  if (result.certificate.has_value()) {
    const AnytimeCertificate& cert = *result.certificate;
    r.answer += " | ";
    r.answer += TerminationReasonName(cert.reason);
    r.answer += " eps=";
    r.answer += Hex(cert.epsilon);
    r.answer += " ceil=";
    r.answer += Hex(cert.excluded_ceiling);
    for (const ScoreInterval& iv : cert.intervals) {
      r.answer += " [";
      r.answer += Hex(iv.lower);
      r.answer += ',';
      r.answer += Hex(iv.upper);
      r.answer += ']';
    }
  }
  return r;
}

struct Regime {
  const char* name;
  double cs;
  double cr;
};

constexpr Regime kRegimes[] = {
    {"cs1cr2", 1.0, 2.0},
    {"cs10cr1", 10.0, 1.0},
    {"probe", kImpossibleCost, 1.0},
};

struct Scenario {
  bool quantized;
  size_t m;
  ScoringKind kind;
  Regime regime;
  uint64_t seed;

  std::string Label() const {
    return std::string(quantized ? "q16" : "unif") + "/m" +
           std::to_string(m) + "/" +
           (kind == ScoringKind::kAverage ? "avg" : "min") + "/" +
           regime.name;
  }
};

// Variations of one NC run beyond the plain exact query.
struct NcOptions {
  size_t k = 1;
  double theta = 1.0;
  size_t extend_to = 0;
  size_t max_accesses = 0;
  double max_cost = 0.0;
};

class GoldenRecorder {
 public:
  void Add(const std::string& label, const Record& record) {
    rows_.emplace(label, record);
  }
  const std::map<std::string, Record>& rows() const { return rows_; }

 private:
  std::map<std::string, Record> rows_;
};

void RunNcCase(const Scenario& s, const NcOptions& o, const std::string& tag,
               GoldenRecorder* recorder) {
  const Dataset data = MakeData(s.quantized, s.m, s.seed);
  const auto scoring = MakeScoringFunction(s.kind, s.m);
  SourceSet sources(&data, CostModel::Uniform(s.m, s.regime.cs, s.regime.cr));
  if (o.max_cost > 0.0) {
    QueryBudget budget;
    budget.max_cost = o.max_cost;
    ASSERT_TRUE(sources.set_budget(budget).ok());
  }
  SRGPolicy policy(SRGConfig::Default(s.m));
  EngineOptions options;
  options.k = o.k;
  options.approximation_theta = o.theta;
  options.max_accesses = o.max_accesses;
  options.best_effort = o.max_accesses != 0;
  NCEngine engine(&sources, scoring.get(), &policy, options);
  TopKResult result;
  Status status = engine.Run(&result);
  recorder->Add(s.Label() + "/NC/" + tag, Capture(status, sources, result));
  if (o.extend_to != 0) {
    status = engine.Extend(o.extend_to, &result);
    recorder->Add(s.Label() + "/NC/" + tag + "+extend" +
                      std::to_string(o.extend_to),
                  Capture(status, sources, result));
  }
}

void RunBaselineCase(const Scenario& s, size_t k, double max_cost,
                     const std::string& tag, GoldenRecorder* recorder) {
  const Dataset data = MakeData(s.quantized, s.m, s.seed);
  const auto scoring = MakeScoringFunction(s.kind, s.m);
  for (const bool upper : {false, true}) {
    SourceSet sources(&data,
                      CostModel::Uniform(s.m, s.regime.cs, s.regime.cr));
    if (max_cost > 0.0) {
      QueryBudget budget;
      budget.max_cost = max_cost;
      ASSERT_TRUE(sources.set_budget(budget).ok());
    }
    TopKResult result;
    const Status status =
        upper ? RunUpper(&sources, *scoring, k, {}, &result)
              : RunMPro(&sources, *scoring, k, {}, &result);
    recorder->Add(s.Label() + (upper ? "/Upper/" : "/MPro/") + tag,
                  Capture(status, sources, result));
  }
}

GoldenRecorder RunGrid() {
  GoldenRecorder recorder;
  uint64_t seed = 9100;
  for (const bool quantized : {false, true}) {
    for (const size_t m : {size_t{2}, size_t{3}}) {
      for (const ScoringKind kind :
           {ScoringKind::kAverage, ScoringKind::kMin}) {
        for (const Regime& regime : kRegimes) {
          const Scenario s{quantized, m, kind, regime, ++seed};
          for (const size_t k : {size_t{1}, size_t{5}, size_t{50}}) {
            std::string tag = "k";
            tag += std::to_string(k);
            NcOptions o;
            o.k = k;
            RunNcCase(s, o, tag, &recorder);
            RunBaselineCase(s, k, /*max_cost=*/0.0, tag, &recorder);
          }
          NcOptions theta;
          theta.k = 5;
          theta.theta = 1.5;
          RunNcCase(s, theta, "k5theta1.5", &recorder);
          NcOptions extend;
          extend.k = 5;
          extend.extend_to = 20;
          RunNcCase(s, extend, "k5", &recorder);
          NcOptions capped;
          capped.k = 5;
          capped.max_accesses = 25;
          RunNcCase(s, capped, "k5cap25", &recorder);
          NcOptions budgeted;
          budgeted.k = 5;
          budgeted.max_cost = 40.0;
          RunNcCase(s, budgeted, "k5cost40", &recorder);
          RunBaselineCase(s, 5, /*max_cost=*/40.0, "k5cost40", &recorder);
        }
      }
    }
  }
  return recorder;
}

// label cost=<hexfloat> accesses=<n> digest=<fnv1a64 of the answer record>
const char* const kGolden[] = {
    "q16/m2/avg/cs10cr1/MPro/k1 cost=0x1.8p+3 accesses=12 digest=afb0431a4c5347f9",
    "q16/m2/avg/cs10cr1/MPro/k5 cost=0x1.76p+7 accesses=187 digest=910e7a58872aadf9",
    "q16/m2/avg/cs10cr1/MPro/k50 cost=0x1.12p+8 accesses=274 digest=337f47d7384b10a8",
    "q16/m2/avg/cs10cr1/MPro/k5cost40 cost=0x1.4p+5 accesses=40 digest=2c8f89a556548488",
    "q16/m2/avg/cs10cr1/NC/k1 cost=0x1.4p+4 accesses=2 digest=afb0431a4c5347f9",
    "q16/m2/avg/cs10cr1/NC/k5 cost=0x1.7cp+9 accesses=76 digest=910e7a58872aadf9",
    "q16/m2/avg/cs10cr1/NC/k5+extend20 cost=0x1.69cp+10 accesses=151 digest=0505583a8f7c3003",
    "q16/m2/avg/cs10cr1/NC/k50 cost=0x1.75p+10 accesses=196 digest=337f47d7384b10a8",
    "q16/m2/avg/cs10cr1/NC/k5cap25 cost=0x1.04p+8 accesses=26 digest=eb724d279fce5cf1",
    "q16/m2/avg/cs10cr1/NC/k5cost40 cost=0x1.4p+5 accesses=4 digest=b04019bce58bb358",
    "q16/m2/avg/cs10cr1/NC/k5theta1.5 cost=0x1.ep+8 accesses=48 digest=8b1ce60328eba90d",
    "q16/m2/avg/cs10cr1/Upper/k1 cost=0x1.6p+3 accesses=2 digest=afb0431a4c5347f9",
    "q16/m2/avg/cs10cr1/Upper/k5 cost=0x1.9ep+8 accesses=72 digest=910e7a58872aadf9",
    "q16/m2/avg/cs10cr1/Upper/k50 cost=0x1.39p+10 accesses=208 digest=337f47d7384b10a8",
    "q16/m2/avg/cs10cr1/Upper/k5cost40 cost=0x1.5p+5 accesses=6 digest=423ca9206806a732",
    "q16/m2/avg/cs1cr2/MPro/k1 cost=0x1.6cp+8 accesses=182 digest=c9d74746433231ab",
    "q16/m2/avg/cs1cr2/MPro/k5 cost=0x1.88p+8 accesses=196 digest=492951f74a9f7830",
    "q16/m2/avg/cs1cr2/MPro/k50 cost=0x1.04p+9 accesses=260 digest=e4b1448d05e28ba3",
    "q16/m2/avg/cs1cr2/MPro/k5cost40 cost=0x1.4p+5 accesses=20 digest=dcf0843f6f095fcb",
    "q16/m2/avg/cs1cr2/NC/k1 cost=0x1.04p+6 accesses=65 digest=c9d74746433231ab",
    "q16/m2/avg/cs1cr2/NC/k5 cost=0x1.5p+6 accesses=84 digest=492951f74a9f7830",
    "q16/m2/avg/cs1cr2/NC/k5+extend20 cost=0x1.26p+7 accesses=147 digest=d33dedef92d7e30f",
    "q16/m2/avg/cs1cr2/NC/k50 cost=0x1.9ep+7 accesses=177 digest=e4b1448d05e28ba3",
    "q16/m2/avg/cs1cr2/NC/k5cap25 cost=0x1.ap+4 accesses=26 digest=b85bbca41c1dfcf6",
    "q16/m2/avg/cs1cr2/NC/k5cost40 cost=0x1.4p+5 accesses=40 digest=80303e9a468e38d8",
    "q16/m2/avg/cs1cr2/NC/k5theta1.5 cost=0x1.fp+5 accesses=62 digest=113e50a511748225",
    "q16/m2/avg/cs1cr2/Upper/k1 cost=0x1.5p+6 accesses=56 digest=c9d74746433231ab",
    "q16/m2/avg/cs1cr2/Upper/k5 cost=0x1.fp+6 accesses=83 digest=492951f74a9f7830",
    "q16/m2/avg/cs1cr2/Upper/k50 cost=0x1.14p+8 accesses=192 digest=e4b1448d05e28ba3",
    "q16/m2/avg/cs1cr2/Upper/k5cost40 cost=0x1.4p+5 accesses=27 digest=ece73016b494aafd",
    "q16/m2/avg/probe/MPro/k1 cost=0x1.3ap+7 accesses=157 digest=0f880b36dbfd5a43",
    "q16/m2/avg/probe/MPro/k5 cost=0x1.68p+7 accesses=180 digest=141f2564b42d7ef1",
    "q16/m2/avg/probe/MPro/k50 cost=0x1.09p+8 accesses=265 digest=fa40d3f697c1bd20",
    "q16/m2/avg/probe/MPro/k5cost40 cost=0x1.4p+5 accesses=40 digest=fe3e97d30f68fea5",
    "q16/m2/avg/probe/NC/k1 cost=0x1.3ap+7 accesses=157 digest=0f880b36dbfd5a43",
    "q16/m2/avg/probe/NC/k5 cost=0x1.68p+7 accesses=180 digest=141f2564b42d7ef1",
    "q16/m2/avg/probe/NC/k5+extend20 cost=0x1.aep+7 accesses=215 digest=c55d490d169174ef",
    "q16/m2/avg/probe/NC/k50 cost=0x1.09p+8 accesses=265 digest=fa40d3f697c1bd20",
    "q16/m2/avg/probe/NC/k5cap25 cost=0x1.ap+4 accesses=26 digest=8047d08c126a48c8",
    "q16/m2/avg/probe/NC/k5cost40 cost=0x1.4p+5 accesses=40 digest=fe3e97d30f68fea5",
    "q16/m2/avg/probe/NC/k5theta1.5 cost=0x1.3ap+7 accesses=157 digest=314795940abb5311",
    "q16/m2/avg/probe/Upper/k1 cost=0x1.3ap+7 accesses=157 digest=0f880b36dbfd5a43",
    "q16/m2/avg/probe/Upper/k5 cost=0x1.68p+7 accesses=180 digest=141f2564b42d7ef1",
    "q16/m2/avg/probe/Upper/k50 cost=0x1.09p+8 accesses=265 digest=fa40d3f697c1bd20",
    "q16/m2/avg/probe/Upper/k5cost40 cost=0x1.4p+5 accesses=40 digest=fe3e97d30f68fea5",
    "q16/m2/min/cs10cr1/MPro/k1 cost=0x1.9cp+6 accesses=103 digest=702e5570b501af8d",
    "q16/m2/min/cs10cr1/MPro/k5 cost=0x1.58p+7 accesses=172 digest=f76c7b3148eea6ff",
    "q16/m2/min/cs10cr1/MPro/k50 cost=0x1.cap+7 accesses=229 digest=db7db1dd571318f8",
    "q16/m2/min/cs10cr1/MPro/k5cost40 cost=0x1.4p+5 accesses=40 digest=623c31df9cdcb769",
    "q16/m2/min/cs10cr1/NC/k1 cost=0x1.7cp+7 accesses=19 digest=702e5570b501af8d",
    "q16/m2/min/cs10cr1/NC/k5 cost=0x1.86p+9 accesses=78 digest=f76c7b3148eea6ff",
    "q16/m2/min/cs10cr1/NC/k5+extend20 cost=0x1.4p+10 accesses=128 digest=4b7401b374765a1a",
    "q16/m2/min/cs10cr1/NC/k50 cost=0x1.908p+10 accesses=216 digest=db7db1dd571318f8",
    "q16/m2/min/cs10cr1/NC/k5cap25 cost=0x1.04p+8 accesses=26 digest=7fbf908f87a5f244",
    "q16/m2/min/cs10cr1/NC/k5cost40 cost=0x1.4p+5 accesses=4 digest=4f7a7391a655b4c6",
    "q16/m2/min/cs10cr1/NC/k5theta1.5 cost=0x1.45p+9 accesses=65 digest=708f488bc60b7e09",
    "q16/m2/min/cs10cr1/Upper/k1 cost=0x1.8cp+6 accesses=18 digest=702e5570b501af8d",
    "q16/m2/min/cs10cr1/Upper/k5 cost=0x1.53p+8 accesses=60 digest=f76c7b3148eea6ff",
    "q16/m2/min/cs10cr1/Upper/k50 cost=0x1.704p+10 accesses=240 digest=db7db1dd571318f8",
    "q16/m2/min/cs10cr1/Upper/k5cost40 cost=0x1.58p+5 accesses=7 digest=04b8dbfdad783568",
    "q16/m2/min/cs1cr2/MPro/k1 cost=0x1.46p+8 accesses=163 digest=ecd25aa625f1a6a6",
    "q16/m2/min/cs1cr2/MPro/k5 cost=0x1.6ap+8 accesses=181 digest=445dbb004004f835",
    "q16/m2/min/cs1cr2/MPro/k50 cost=0x1.e8p+8 accesses=244 digest=694c78527fd01d6e",
    "q16/m2/min/cs1cr2/MPro/k5cost40 cost=0x1.4p+5 accesses=20 digest=04c23c730ac542cb",
    "q16/m2/min/cs1cr2/NC/k1 cost=0x1.28p+5 accesses=37 digest=ecd25aa625f1a6a6",
    "q16/m2/min/cs1cr2/NC/k5 cost=0x1.f8p+5 accesses=63 digest=445dbb004004f835",
    "q16/m2/min/cs1cr2/NC/k5+extend20 cost=0x1.d4p+6 accesses=117 digest=96407cd0d52b52b5",
    "q16/m2/min/cs1cr2/NC/k50 cost=0x1.3cp+8 accesses=236 digest=694c78527fd01d6e",
    "q16/m2/min/cs1cr2/NC/k5cap25 cost=0x1.ap+4 accesses=26 digest=1c09c20689d4a717",
    "q16/m2/min/cs1cr2/NC/k5cost40 cost=0x1.4p+5 accesses=40 digest=83c47465322c84e4",
    "q16/m2/min/cs1cr2/NC/k5theta1.5 cost=0x1.d8p+5 accesses=59 digest=db25ccc25bf27dc1",
    "q16/m2/min/cs1cr2/Upper/k1 cost=0x1.ep+5 accesses=40 digest=ecd25aa625f1a6a6",
    "q16/m2/min/cs1cr2/Upper/k5 cost=0x1.dp+6 accesses=78 digest=445dbb004004f835",
    "q16/m2/min/cs1cr2/Upper/k50 cost=0x1.72p+8 accesses=259 digest=694c78527fd01d6e",
    "q16/m2/min/cs1cr2/Upper/k5cost40 cost=0x1.4p+5 accesses=27 digest=e9c7704d958c362e",
    "q16/m2/min/probe/MPro/k1 cost=0x1.3ep+7 accesses=159 digest=f49f401abcfcbabb",
    "q16/m2/min/probe/MPro/k5 cost=0x1.66p+7 accesses=179 digest=808741dfa43d3908",
    "q16/m2/min/probe/MPro/k50 cost=0x1.d6p+7 accesses=235 digest=332129e17a5f8483",
    "q16/m2/min/probe/MPro/k5cost40 cost=0x1.4p+5 accesses=40 digest=fe3e97d30f68fea5",
    "q16/m2/min/probe/NC/k1 cost=0x1.3ep+7 accesses=159 digest=f49f401abcfcbabb",
    "q16/m2/min/probe/NC/k5 cost=0x1.66p+7 accesses=179 digest=808741dfa43d3908",
    "q16/m2/min/probe/NC/k5+extend20 cost=0x1.94p+7 accesses=202 digest=dccc2e410b399b58",
    "q16/m2/min/probe/NC/k50 cost=0x1.d6p+7 accesses=235 digest=332129e17a5f8483",
    "q16/m2/min/probe/NC/k5cap25 cost=0x1.ap+4 accesses=26 digest=8047d08c126a48c8",
    "q16/m2/min/probe/NC/k5cost40 cost=0x1.4p+5 accesses=40 digest=fe3e97d30f68fea5",
    "q16/m2/min/probe/NC/k5theta1.5 cost=0x1.0ep+7 accesses=135 digest=fa83502fa474dd67",
    "q16/m2/min/probe/Upper/k1 cost=0x1.3ep+7 accesses=159 digest=f49f401abcfcbabb",
    "q16/m2/min/probe/Upper/k5 cost=0x1.66p+7 accesses=179 digest=808741dfa43d3908",
    "q16/m2/min/probe/Upper/k50 cost=0x1.d6p+7 accesses=235 digest=332129e17a5f8483",
    "q16/m2/min/probe/Upper/k5cost40 cost=0x1.4p+5 accesses=40 digest=fe3e97d30f68fea5",
    "q16/m3/avg/cs10cr1/MPro/k1 cost=0x1.92p+7 accesses=201 digest=ed03838a08e9932d",
    "q16/m3/avg/cs10cr1/MPro/k5 cost=0x1.e4p+7 accesses=242 digest=2cb4fc7432c0c53a",
    "q16/m3/avg/cs10cr1/MPro/k50 cost=0x1.95p+8 accesses=405 digest=4a43cc0274006dd6",
    "q16/m3/avg/cs10cr1/MPro/k5cost40 cost=0x1.4p+5 accesses=40 digest=9edf121a9262459f",
    "q16/m3/avg/cs10cr1/NC/k1 cost=0x1.09p+10 accesses=106 digest=ed03838a08e9932d",
    "q16/m3/avg/cs10cr1/NC/k5 cost=0x1.e58p+10 accesses=196 digest=2cb4fc7432c0c53a",
    "q16/m3/avg/cs10cr1/NC/k5+extend20 cost=0x1.f6cp+10 accesses=238 digest=def88a0890fe85e7",
    "q16/m3/avg/cs10cr1/NC/k50 cost=0x1.042p+11 accesses=308 digest=4a43cc0274006dd6",
    "q16/m3/avg/cs10cr1/NC/k5cap25 cost=0x1.04p+8 accesses=26 digest=0fec46e577155cca",
    "q16/m3/avg/cs10cr1/NC/k5cost40 cost=0x1.4p+5 accesses=4 digest=05bd8cb8993b4586",
    "q16/m3/avg/cs10cr1/NC/k5theta1.5 cost=0x1.72p+10 accesses=148 digest=dbf03ffae8837bfa",
    "q16/m3/avg/cs10cr1/Upper/k1 cost=0x1.238p+9 accesses=106 digest=ed03838a08e9932d",
    "q16/m3/avg/cs10cr1/Upper/k5 cost=0x1.dep+9 accesses=173 digest=2cb4fc7432c0c53a",
    "q16/m3/avg/cs10cr1/Upper/k50 cost=0x1.fe4p+10 accesses=367 digest=4a43cc0274006dd6",
    "q16/m3/avg/cs10cr1/Upper/k5cost40 cost=0x1.58p+5 accesses=7 digest=3d16c9cbe56aa9c1",
    "q16/m3/avg/cs1cr2/MPro/k1 cost=0x1.86p+8 accesses=195 digest=06c981d149eed491",
    "q16/m3/avg/cs1cr2/MPro/k5 cost=0x1.c2p+8 accesses=225 digest=176c92a0d11f2567",
    "q16/m3/avg/cs1cr2/MPro/k50 cost=0x1.9fp+9 accesses=415 digest=da336fa4d82e613c",
    "q16/m3/avg/cs1cr2/MPro/k5cost40 cost=0x1.4p+5 accesses=20 digest=dcf0843f6f095fcb",
    "q16/m3/avg/cs1cr2/NC/k1 cost=0x1.ccp+6 accesses=115 digest=06c981d149eed491",
    "q16/m3/avg/cs1cr2/NC/k5 cost=0x1.6cp+7 accesses=182 digest=176c92a0d11f2567",
    "q16/m3/avg/cs1cr2/NC/k5+extend20 cost=0x1.eep+7 accesses=226 digest=600627137aca00a3",
    "q16/m3/avg/cs1cr2/NC/k50 cost=0x1.cdp+8 accesses=333 digest=da336fa4d82e613c",
    "q16/m3/avg/cs1cr2/NC/k5cap25 cost=0x1.ap+4 accesses=26 digest=2cc4566bab4d9ad5",
    "q16/m3/avg/cs1cr2/NC/k5cost40 cost=0x1.4p+5 accesses=40 digest=8bc62eb93cf2515e",
    "q16/m3/avg/cs1cr2/NC/k5theta1.5 cost=0x1.f8p+6 accesses=126 digest=f29e633b5840b099",
    "q16/m3/avg/cs1cr2/Upper/k1 cost=0x1.3cp+7 accesses=106 digest=06c981d149eed491",
    "q16/m3/avg/cs1cr2/Upper/k5 cost=0x1.ecp+7 accesses=165 digest=176c92a0d11f2567",
    "q16/m3/avg/cs1cr2/Upper/k50 cost=0x1.228p+9 accesses=388 digest=da336fa4d82e613c",
    "q16/m3/avg/cs1cr2/Upper/k5cost40 cost=0x1.4p+5 accesses=27 digest=4498e16dd842ad18",
    "q16/m3/avg/probe/MPro/k1 cost=0x1.8cp+7 accesses=198 digest=637b14ff7a87413a",
    "q16/m3/avg/probe/MPro/k5 cost=0x1.e4p+7 accesses=242 digest=dd84a9d72334e1b8",
    "q16/m3/avg/probe/MPro/k50 cost=0x1.89p+8 accesses=393 digest=4ad8267df361f883",
    "q16/m3/avg/probe/MPro/k5cost40 cost=0x1.4p+5 accesses=40 digest=9edf121a9262459f",
    "q16/m3/avg/probe/NC/k1 cost=0x1.8cp+7 accesses=198 digest=637b14ff7a87413a",
    "q16/m3/avg/probe/NC/k5 cost=0x1.e4p+7 accesses=242 digest=dd84a9d72334e1b8",
    "q16/m3/avg/probe/NC/k5+extend20 cost=0x1.3bp+8 accesses=315 digest=14b3a799eae315a8",
    "q16/m3/avg/probe/NC/k50 cost=0x1.89p+8 accesses=393 digest=4ad8267df361f883",
    "q16/m3/avg/probe/NC/k5cap25 cost=0x1.ap+4 accesses=26 digest=bd89e7427ff32172",
    "q16/m3/avg/probe/NC/k5cost40 cost=0x1.4p+5 accesses=40 digest=9edf121a9262459f",
    "q16/m3/avg/probe/NC/k5theta1.5 cost=0x1.8ep+7 accesses=199 digest=c09602f5c49981b0",
    "q16/m3/avg/probe/Upper/k1 cost=0x1.8cp+7 accesses=198 digest=637b14ff7a87413a",
    "q16/m3/avg/probe/Upper/k5 cost=0x1.e4p+7 accesses=242 digest=dd84a9d72334e1b8",
    "q16/m3/avg/probe/Upper/k50 cost=0x1.89p+8 accesses=393 digest=4ad8267df361f883",
    "q16/m3/avg/probe/Upper/k5cost40 cost=0x1.4p+5 accesses=40 digest=9edf121a9262459f",
    "q16/m3/min/cs10cr1/MPro/k1 cost=0x1.64p+7 accesses=178 digest=4a8dd77c78ed8e5a",
    "q16/m3/min/cs10cr1/MPro/k5 cost=0x1.9cp+7 accesses=206 digest=36ca427a0598afce",
    "q16/m3/min/cs10cr1/MPro/k50 cost=0x1.36p+8 accesses=310 digest=dd699e20ae0ad5fa",
    "q16/m3/min/cs10cr1/MPro/k5cost40 cost=0x1.4p+5 accesses=40 digest=95eaf46963c1bc97",
    "q16/m3/min/cs10cr1/NC/k1 cost=0x1.fep+9 accesses=102 digest=4a8dd77c78ed8e5a",
    "q16/m3/min/cs10cr1/NC/k5 cost=0x1.d1p+10 accesses=186 digest=36ca427a0598afce",
    "q16/m3/min/cs10cr1/NC/k5+extend20 cost=0x1.18ep+11 accesses=294 digest=6cbae83e5a7be754",
    "q16/m3/min/cs10cr1/NC/k50 cost=0x1.7a6p+11 accesses=444 digest=dd699e20ae0ad5fa",
    "q16/m3/min/cs10cr1/NC/k5cap25 cost=0x1.04p+8 accesses=26 digest=63b0ec03cf17271e",
    "q16/m3/min/cs10cr1/NC/k5cost40 cost=0x1.4p+5 accesses=4 digest=0bc914cd1359f38f",
    "q16/m3/min/cs10cr1/NC/k5theta1.5 cost=0x1.b8p+10 accesses=176 digest=7fc21a5c65bc1c54",
    "q16/m3/min/cs10cr1/Upper/k1 cost=0x1.04p+9 accesses=97 digest=4a8dd77c78ed8e5a",
    "q16/m3/min/cs10cr1/Upper/k5 cost=0x1.61cp+10 accesses=263 digest=36ca427a0598afce",
    "q16/m3/min/cs10cr1/Upper/k50 cost=0x1.75ap+11 accesses=496 digest=dd699e20ae0ad5fa",
    "q16/m3/min/cs10cr1/Upper/k5cost40 cost=0x1.58p+5 accesses=7 digest=ae71a35c6ebdf279",
    "q16/m3/min/cs1cr2/MPro/k1 cost=0x1.7ap+8 accesses=189 digest=2d74ba82f6324d8a",
    "q16/m3/min/cs1cr2/MPro/k5 cost=0x1.aep+8 accesses=215 digest=31a4397d396280b1",
    "q16/m3/min/cs1cr2/MPro/k50 cost=0x1.3bp+9 accesses=315 digest=630f6b443dbca5cb",
    "q16/m3/min/cs1cr2/MPro/k5cost40 cost=0x1.4p+5 accesses=20 digest=dcf0843f6f095fcb",
    "q16/m3/min/cs1cr2/NC/k1 cost=0x1.ap+6 accesses=104 digest=2d74ba82f6324d8a",
    "q16/m3/min/cs1cr2/NC/k5 cost=0x1.42p+7 accesses=161 digest=31a4397d396280b1",
    "q16/m3/min/cs1cr2/NC/k5+extend20 cost=0x1.d9p+8 accesses=349 digest=c4bb3c0ec3abccbf",
    "q16/m3/min/cs1cr2/NC/k50 cost=0x1.218p+9 accesses=426 digest=630f6b443dbca5cb",
    "q16/m3/min/cs1cr2/NC/k5cap25 cost=0x1.ap+4 accesses=26 digest=e9f9217f5df103f4",
    "q16/m3/min/cs1cr2/NC/k5cost40 cost=0x1.4p+5 accesses=40 digest=7f35d31cd26f1128",
    "q16/m3/min/cs1cr2/NC/k5theta1.5 cost=0x1.24p+7 accesses=146 digest=8a37ba127e385aca",
    "q16/m3/min/cs1cr2/Upper/k1 cost=0x1.6p+7 accesses=118 digest=1aee58c13b3d61cf",
    "q16/m3/min/cs1cr2/Upper/k5 cost=0x1.38p+8 accesses=210 digest=31a4397d396280b1",
    "q16/m3/min/cs1cr2/Upper/k50 cost=0x1.538p+9 accesses=481 digest=630f6b443dbca5cb",
    "q16/m3/min/cs1cr2/Upper/k5cost40 cost=0x1.4p+5 accesses=27 digest=c838f830e11dafbd",
    "q16/m3/min/probe/MPro/k1 cost=0x1.6ap+7 accesses=181 digest=f086c927d61d1256",
    "q16/m3/min/probe/MPro/k5 cost=0x1.8ep+7 accesses=199 digest=fb8dca8f9e26e0c8",
    "q16/m3/min/probe/MPro/k50 cost=0x1.43p+8 accesses=323 digest=58d9310628d25493",
    "q16/m3/min/probe/MPro/k5cost40 cost=0x1.4p+5 accesses=40 digest=95eaf46963c1bc97",
    "q16/m3/min/probe/NC/k1 cost=0x1.6ap+7 accesses=181 digest=f086c927d61d1256",
    "q16/m3/min/probe/NC/k5 cost=0x1.8ep+7 accesses=199 digest=fb8dca8f9e26e0c8",
    "q16/m3/min/probe/NC/k5+extend20 cost=0x1.fep+7 accesses=255 digest=bf3db9dcc9254e33",
    "q16/m3/min/probe/NC/k50 cost=0x1.43p+8 accesses=323 digest=58d9310628d25493",
    "q16/m3/min/probe/NC/k5cap25 cost=0x1.ap+4 accesses=26 digest=4a57840d5b3e131c",
    "q16/m3/min/probe/NC/k5cost40 cost=0x1.4p+5 accesses=40 digest=95eaf46963c1bc97",
    "q16/m3/min/probe/NC/k5theta1.5 cost=0x1.88p+7 accesses=196 digest=705eee07573e0735",
    "q16/m3/min/probe/Upper/k1 cost=0x1.6ap+7 accesses=181 digest=f086c927d61d1256",
    "q16/m3/min/probe/Upper/k5 cost=0x1.8ep+7 accesses=199 digest=fb8dca8f9e26e0c8",
    "q16/m3/min/probe/Upper/k50 cost=0x1.43p+8 accesses=323 digest=58d9310628d25493",
    "q16/m3/min/probe/Upper/k5cost40 cost=0x1.4p+5 accesses=40 digest=95eaf46963c1bc97",
    "unif/m2/avg/cs10cr1/MPro/k1 cost=0x1.34p+7 accesses=154 digest=1c9e488e97c74e0b",
    "unif/m2/avg/cs10cr1/MPro/k5 cost=0x1.82p+7 accesses=193 digest=f71d486ad53900e9",
    "unif/m2/avg/cs10cr1/MPro/k50 cost=0x1.19p+8 accesses=281 digest=87b58c648916c864",
    "unif/m2/avg/cs10cr1/MPro/k5cost40 cost=0x1.4p+5 accesses=40 digest=fe3e97d30f68fea5",
    "unif/m2/avg/cs10cr1/NC/k1 cost=0x1.9p+5 accesses=5 digest=1c9e488e97c74e0b",
    "unif/m2/avg/cs10cr1/NC/k5 cost=0x1.6dp+9 accesses=73 digest=f71d486ad53900e9",
    "unif/m2/avg/cs10cr1/NC/k5+extend20 cost=0x1.744p+10 accesses=157 digest=0e26541f758ef66a",
    "unif/m2/avg/cs10cr1/NC/k50 cost=0x1.7dp+10 accesses=192 digest=87b58c648916c864",
    "unif/m2/avg/cs10cr1/NC/k5cap25 cost=0x1.04p+8 accesses=26 digest=9fc27c91d2bb2a3c",
    "unif/m2/avg/cs10cr1/NC/k5cost40 cost=0x1.4p+5 accesses=4 digest=9ce6d19cb9ac50b3",
    "unif/m2/avg/cs10cr1/NC/k5theta1.5 cost=0x1.27p+9 accesses=59 digest=1fbfd049671edd3e",
    "unif/m2/avg/cs10cr1/Upper/k1 cost=0x1.58p+5 accesses=7 digest=1c9e488e97c74e0b",
    "unif/m2/avg/cs10cr1/Upper/k5 cost=0x1.bfp+8 accesses=78 digest=f71d486ad53900e9",
    "unif/m2/avg/cs10cr1/Upper/k50 cost=0x1.498p+10 accesses=220 digest=87b58c648916c864",
    "unif/m2/avg/cs10cr1/Upper/k5cost40 cost=0x1.58p+5 accesses=7 digest=15250a3e24878cfc",
    "unif/m2/avg/cs1cr2/MPro/k1 cost=0x1.4ap+8 accesses=165 digest=0a0cb56e40cc2b33",
    "unif/m2/avg/cs1cr2/MPro/k5 cost=0x1.78p+8 accesses=188 digest=a0aa516371ecccb0",
    "unif/m2/avg/cs1cr2/MPro/k50 cost=0x1.11p+9 accesses=273 digest=d3bd190ffadbfbcc",
    "unif/m2/avg/cs1cr2/MPro/k5cost40 cost=0x1.4p+5 accesses=20 digest=dcf0843f6f095fcb",
    "unif/m2/avg/cs1cr2/NC/k1 cost=0x1.18p+5 accesses=35 digest=0a0cb56e40cc2b33",
    "unif/m2/avg/cs1cr2/NC/k5 cost=0x1.3p+6 accesses=76 digest=a0aa516371ecccb0",
    "unif/m2/avg/cs1cr2/NC/k5+extend20 cost=0x1.54p+7 accesses=161 digest=84b4dca911d4dfa7",
    "unif/m2/avg/cs1cr2/NC/k50 cost=0x1.d8p+7 accesses=194 digest=d3bd190ffadbfbcc",
    "unif/m2/avg/cs1cr2/NC/k5cap25 cost=0x1.ap+4 accesses=26 digest=03637e427e0b6d4a",
    "unif/m2/avg/cs1cr2/NC/k5cost40 cost=0x1.4p+5 accesses=40 digest=d7e41cddf3c42d21",
    "unif/m2/avg/cs1cr2/NC/k5theta1.5 cost=0x1.48p+5 accesses=41 digest=3902cdfa5793769a",
    "unif/m2/avg/cs1cr2/Upper/k1 cost=0x1.7p+5 accesses=31 digest=0a0cb56e40cc2b33",
    "unif/m2/avg/cs1cr2/Upper/k5 cost=0x1.a8p+6 accesses=72 digest=a0aa516371ecccb0",
    "unif/m2/avg/cs1cr2/Upper/k50 cost=0x1.45p+8 accesses=225 digest=d3bd190ffadbfbcc",
    "unif/m2/avg/cs1cr2/Upper/k5cost40 cost=0x1.4p+5 accesses=27 digest=40c5dbf9e1a23cb3",
    "unif/m2/avg/probe/MPro/k1 cost=0x1.56p+7 accesses=171 digest=ecf20cec5a58ab72",
    "unif/m2/avg/probe/MPro/k5 cost=0x1.86p+7 accesses=195 digest=a95521362944b7fc",
    "unif/m2/avg/probe/MPro/k50 cost=0x1.17p+8 accesses=279 digest=4aa955767fe8b698",
    "unif/m2/avg/probe/MPro/k5cost40 cost=0x1.4p+5 accesses=40 digest=fe3e97d30f68fea5",
    "unif/m2/avg/probe/NC/k1 cost=0x1.56p+7 accesses=171 digest=ecf20cec5a58ab72",
    "unif/m2/avg/probe/NC/k5 cost=0x1.86p+7 accesses=195 digest=a95521362944b7fc",
    "unif/m2/avg/probe/NC/k5+extend20 cost=0x1.ccp+7 accesses=230 digest=84e90c1ff1214eb0",
    "unif/m2/avg/probe/NC/k50 cost=0x1.17p+8 accesses=279 digest=4aa955767fe8b698",
    "unif/m2/avg/probe/NC/k5cap25 cost=0x1.ap+4 accesses=26 digest=8047d08c126a48c8",
    "unif/m2/avg/probe/NC/k5cost40 cost=0x1.4p+5 accesses=40 digest=fe3e97d30f68fea5",
    "unif/m2/avg/probe/NC/k5theta1.5 cost=0x1.3ep+7 accesses=159 digest=a0ea9b68a6ea79c6",
    "unif/m2/avg/probe/Upper/k1 cost=0x1.56p+7 accesses=171 digest=ecf20cec5a58ab72",
    "unif/m2/avg/probe/Upper/k5 cost=0x1.86p+7 accesses=195 digest=a95521362944b7fc",
    "unif/m2/avg/probe/Upper/k50 cost=0x1.17p+8 accesses=279 digest=4aa955767fe8b698",
    "unif/m2/avg/probe/Upper/k5cost40 cost=0x1.4p+5 accesses=40 digest=fe3e97d30f68fea5",
    "unif/m2/min/cs10cr1/MPro/k1 cost=0x1.3ep+7 accesses=159 digest=5d06e2bd060ac600",
    "unif/m2/min/cs10cr1/MPro/k5 cost=0x1.5ap+7 accesses=173 digest=2f94fbbcf51bc782",
    "unif/m2/min/cs10cr1/MPro/k50 cost=0x1.d2p+7 accesses=233 digest=4c9b454f6b3c6534",
    "unif/m2/min/cs10cr1/MPro/k5cost40 cost=0x1.4p+5 accesses=40 digest=fe3e97d30f68fea5",
    "unif/m2/min/cs10cr1/NC/k1 cost=0x1.b8p+7 accesses=22 digest=5d06e2bd060ac600",
    "unif/m2/min/cs10cr1/NC/k5 cost=0x1.ep+8 accesses=48 digest=2f94fbbcf51bc782",
    "unif/m2/min/cs10cr1/NC/k5+extend20 cost=0x1.068p+10 accesses=105 digest=3d9333962352f38f",
    "unif/m2/min/cs10cr1/NC/k50 cost=0x1.afcp+10 accesses=242 digest=4c9b454f6b3c6534",
    "unif/m2/min/cs10cr1/NC/k5cap25 cost=0x1.04p+8 accesses=26 digest=486932a0761410ba",
    "unif/m2/min/cs10cr1/NC/k5cost40 cost=0x1.4p+5 accesses=4 digest=515e5e29ad23e9c9",
    "unif/m2/min/cs10cr1/NC/k5theta1.5 cost=0x1.d6p+8 accesses=47 digest=91909fec69fb4aa6",
    "unif/m2/min/cs10cr1/Upper/k1 cost=0x1.76p+7 accesses=34 digest=5d06e2bd060ac600",
    "unif/m2/min/cs10cr1/Upper/k5 cost=0x1.eap+8 accesses=85 digest=2f94fbbcf51bc782",
    "unif/m2/min/cs10cr1/Upper/k50 cost=0x1.bfp+10 accesses=285 digest=4c9b454f6b3c6534",
    "unif/m2/min/cs10cr1/Upper/k5cost40 cost=0x1.58p+5 accesses=7 digest=ab48c79a882255af",
    "unif/m2/min/cs1cr2/MPro/k1 cost=0x1.5cp+8 accesses=174 digest=ff59c6e791acb45f",
    "unif/m2/min/cs1cr2/MPro/k5 cost=0x1.6ep+8 accesses=183 digest=a254594c77df6680",
    "unif/m2/min/cs1cr2/MPro/k50 cost=0x1.dap+8 accesses=237 digest=dddcdd96a4e4362f",
    "unif/m2/min/cs1cr2/MPro/k5cost40 cost=0x1.4p+5 accesses=20 digest=dcf0843f6f095fcb",
    "unif/m2/min/cs1cr2/NC/k1 cost=0x1.5p+5 accesses=42 digest=ff59c6e791acb45f",
    "unif/m2/min/cs1cr2/NC/k5 cost=0x1.ep+5 accesses=60 digest=a254594c77df6680",
    "unif/m2/min/cs1cr2/NC/k5+extend20 cost=0x1.b4p+6 accesses=109 digest=24b018552197267a",
    "unif/m2/min/cs1cr2/NC/k50 cost=0x1.59p+8 accesses=255 digest=dddcdd96a4e4362f",
    "unif/m2/min/cs1cr2/NC/k5cap25 cost=0x1.ap+4 accesses=26 digest=2257c99f9f632321",
    "unif/m2/min/cs1cr2/NC/k5cost40 cost=0x1.4p+5 accesses=40 digest=df0498dd7bb26524",
    "unif/m2/min/cs1cr2/NC/k5theta1.5 cost=0x1.dp+5 accesses=58 digest=45d2af0b8780138c",
    "unif/m2/min/cs1cr2/Upper/k1 cost=0x1.8p+6 accesses=64 digest=ff59c6e791acb45f",
    "unif/m2/min/cs1cr2/Upper/k5 cost=0x1.1cp+7 accesses=96 digest=a254594c77df6680",
    "unif/m2/min/cs1cr2/Upper/k50 cost=0x1.a3p+8 accesses=296 digest=dddcdd96a4e4362f",
    "unif/m2/min/cs1cr2/Upper/k5cost40 cost=0x1.4p+5 accesses=27 digest=dff2c0a86399a33b",
    "unif/m2/min/probe/MPro/k1 cost=0x1.3ep+7 accesses=159 digest=6e8f5c6ed0f2e1aa",
    "unif/m2/min/probe/MPro/k5 cost=0x1.5ep+7 accesses=175 digest=81c411cfd9393fad",
    "unif/m2/min/probe/MPro/k50 cost=0x1.d8p+7 accesses=236 digest=bb3e6e3278c840d6",
    "unif/m2/min/probe/MPro/k5cost40 cost=0x1.4p+5 accesses=40 digest=fe3e97d30f68fea5",
    "unif/m2/min/probe/NC/k1 cost=0x1.3ep+7 accesses=159 digest=6e8f5c6ed0f2e1aa",
    "unif/m2/min/probe/NC/k5 cost=0x1.5ep+7 accesses=175 digest=81c411cfd9393fad",
    "unif/m2/min/probe/NC/k5+extend20 cost=0x1.9p+7 accesses=200 digest=e39290ecb83fd1b0",
    "unif/m2/min/probe/NC/k50 cost=0x1.d8p+7 accesses=236 digest=bb3e6e3278c840d6",
    "unif/m2/min/probe/NC/k5cap25 cost=0x1.ap+4 accesses=26 digest=8047d08c126a48c8",
    "unif/m2/min/probe/NC/k5cost40 cost=0x1.4p+5 accesses=40 digest=fe3e97d30f68fea5",
    "unif/m2/min/probe/NC/k5theta1.5 cost=0x1.42p+7 accesses=161 digest=543428e6082f11fa",
    "unif/m2/min/probe/Upper/k1 cost=0x1.3ep+7 accesses=159 digest=6e8f5c6ed0f2e1aa",
    "unif/m2/min/probe/Upper/k5 cost=0x1.5ep+7 accesses=175 digest=81c411cfd9393fad",
    "unif/m2/min/probe/Upper/k50 cost=0x1.d8p+7 accesses=236 digest=bb3e6e3278c840d6",
    "unif/m2/min/probe/Upper/k5cost40 cost=0x1.4p+5 accesses=40 digest=fe3e97d30f68fea5",
    "unif/m3/avg/cs10cr1/MPro/k1 cost=0x1.d4p+7 accesses=234 digest=06d252c159085769",
    "unif/m3/avg/cs10cr1/MPro/k5 cost=0x1.1p+8 accesses=272 digest=292baaa43008d38e",
    "unif/m3/avg/cs10cr1/MPro/k50 cost=0x1.91p+8 accesses=401 digest=1f64d2a171cc8dd7",
    "unif/m3/avg/cs10cr1/MPro/k5cost40 cost=0x1.4p+5 accesses=40 digest=fe3e97d30f68fea5",
    "unif/m3/avg/cs10cr1/NC/k1 cost=0x1.9fp+10 accesses=166 digest=06d252c159085769",
    "unif/m3/avg/cs10cr1/NC/k5 cost=0x1.1fcp+11 accesses=232 digest=292baaa43008d38e",
    "unif/m3/avg/cs10cr1/NC/k5+extend20 cost=0x1.29ap+11 accesses=257 digest=33d003ffb0ceb689",
    "unif/m3/avg/cs10cr1/NC/k50 cost=0x1.308p+11 accesses=312 digest=1f64d2a171cc8dd7",
    "unif/m3/avg/cs10cr1/NC/k5cap25 cost=0x1.04p+8 accesses=26 digest=d3081e7670dd6540",
    "unif/m3/avg/cs10cr1/NC/k5cost40 cost=0x1.4p+5 accesses=4 digest=43aeb0741338a0e8",
    "unif/m3/avg/cs10cr1/NC/k5theta1.5 cost=0x1.928p+10 accesses=161 digest=775816acc21e78f0",
    "unif/m3/avg/cs10cr1/Upper/k1 cost=0x1.a68p+9 accesses=152 digest=06d252c159085769",
    "unif/m3/avg/cs10cr1/Upper/k5 cost=0x1.1p+10 accesses=197 digest=292baaa43008d38e",
    "unif/m3/avg/cs10cr1/Upper/k50 cost=0x1.01p+11 accesses=364 digest=1f64d2a171cc8dd7",
    "unif/m3/avg/cs10cr1/Upper/k5cost40 cost=0x1.58p+5 accesses=7 digest=800b059fbe317217",
    "unif/m3/avg/cs1cr2/MPro/k1 cost=0x1.96p+8 accesses=203 digest=5e3aaa1e3016b21f",
    "unif/m3/avg/cs1cr2/MPro/k5 cost=0x1.c6p+8 accesses=227 digest=4f8e5bc25e97dbc3",
    "unif/m3/avg/cs1cr2/MPro/k50 cost=0x1.9fp+9 accesses=415 digest=0ff687fa720e8ef9",
    "unif/m3/avg/cs1cr2/MPro/k5cost40 cost=0x1.4p+5 accesses=20 digest=dcf0843f6f095fcb",
    "unif/m3/avg/cs1cr2/NC/k1 cost=0x1.88p+6 accesses=98 digest=5e3aaa1e3016b21f",
    "unif/m3/avg/cs1cr2/NC/k5 cost=0x1.04p+7 accesses=130 digest=4f8e5bc25e97dbc3",
    "unif/m3/avg/cs1cr2/NC/k5+extend20 cost=0x1p+8 accesses=240 digest=26c35d07e335c1d1",
    "unif/m3/avg/cs1cr2/NC/k50 cost=0x1.b2p+8 accesses=329 digest=0ff687fa720e8ef9",
    "unif/m3/avg/cs1cr2/NC/k5cap25 cost=0x1.ap+4 accesses=26 digest=0c34c31caa29755f",
    "unif/m3/avg/cs1cr2/NC/k5cost40 cost=0x1.4p+5 accesses=40 digest=5be6d1beac53b9bd",
    "unif/m3/avg/cs1cr2/NC/k5theta1.5 cost=0x1.c4p+6 accesses=113 digest=3a432899cee6884b",
    "unif/m3/avg/cs1cr2/Upper/k1 cost=0x1.fcp+6 accesses=85 digest=5e3aaa1e3016b21f",
    "unif/m3/avg/cs1cr2/Upper/k5 cost=0x1.84p+7 accesses=129 digest=4f8e5bc25e97dbc3",
    "unif/m3/avg/cs1cr2/Upper/k50 cost=0x1.1bp+9 accesses=381 digest=0ff687fa720e8ef9",
    "unif/m3/avg/cs1cr2/Upper/k5cost40 cost=0x1.4p+5 accesses=27 digest=8c4835da1c635ea1",
    "unif/m3/avg/probe/MPro/k1 cost=0x1.aep+7 accesses=215 digest=e21ae161076a831e",
    "unif/m3/avg/probe/MPro/k5 cost=0x1.0bp+8 accesses=267 digest=b75caec6ac033c3d",
    "unif/m3/avg/probe/MPro/k50 cost=0x1.97p+8 accesses=407 digest=865f8d6482ad149e",
    "unif/m3/avg/probe/MPro/k5cost40 cost=0x1.4p+5 accesses=40 digest=fe3e97d30f68fea5",
    "unif/m3/avg/probe/NC/k1 cost=0x1.aep+7 accesses=215 digest=e21ae161076a831e",
    "unif/m3/avg/probe/NC/k5 cost=0x1.0bp+8 accesses=267 digest=b75caec6ac033c3d",
    "unif/m3/avg/probe/NC/k5+extend20 cost=0x1.4cp+8 accesses=332 digest=91bef0ba4aad8d4d",
    "unif/m3/avg/probe/NC/k50 cost=0x1.97p+8 accesses=407 digest=865f8d6482ad149e",
    "unif/m3/avg/probe/NC/k5cap25 cost=0x1.ap+4 accesses=26 digest=8047d08c126a48c8",
    "unif/m3/avg/probe/NC/k5cost40 cost=0x1.4p+5 accesses=40 digest=fe3e97d30f68fea5",
    "unif/m3/avg/probe/NC/k5theta1.5 cost=0x1.9p+7 accesses=200 digest=da734812658af909",
    "unif/m3/avg/probe/Upper/k1 cost=0x1.aep+7 accesses=215 digest=e21ae161076a831e",
    "unif/m3/avg/probe/Upper/k5 cost=0x1.0bp+8 accesses=267 digest=b75caec6ac033c3d",
    "unif/m3/avg/probe/Upper/k50 cost=0x1.97p+8 accesses=407 digest=865f8d6482ad149e",
    "unif/m3/avg/probe/Upper/k5cost40 cost=0x1.4p+5 accesses=40 digest=fe3e97d30f68fea5",
    "unif/m3/min/cs10cr1/MPro/k1 cost=0x1.4cp+7 accesses=166 digest=2c5eb79142b406fd",
    "unif/m3/min/cs10cr1/MPro/k5 cost=0x1.94p+7 accesses=202 digest=08f18ec6f47e80d8",
    "unif/m3/min/cs10cr1/MPro/k50 cost=0x1.4ep+8 accesses=334 digest=3c40f91f25525d91",
    "unif/m3/min/cs10cr1/MPro/k5cost40 cost=0x1.4p+5 accesses=40 digest=fe3e97d30f68fea5",
    "unif/m3/min/cs10cr1/NC/k1 cost=0x1.86p+8 accesses=39 digest=2c5eb79142b406fd",
    "unif/m3/min/cs10cr1/NC/k5 cost=0x1.27p+10 accesses=118 digest=08f18ec6f47e80d8",
    "unif/m3/min/cs10cr1/NC/k5+extend20 cost=0x1.054p+11 accesses=209 digest=bdd98e5e615f93b3",
    "unif/m3/min/cs10cr1/NC/k50 cost=0x1.8fep+11 accesses=454 digest=3c40f91f25525d91",
    "unif/m3/min/cs10cr1/NC/k5cap25 cost=0x1.04p+8 accesses=26 digest=de9eb63be6d30063",
    "unif/m3/min/cs10cr1/NC/k5cost40 cost=0x1.4p+5 accesses=4 digest=9cfb51e4a3bfa8ae",
    "unif/m3/min/cs10cr1/NC/k5theta1.5 cost=0x1.1f8p+10 accesses=115 digest=4ac16660ab287919",
    "unif/m3/min/cs10cr1/Upper/k1 cost=0x1.cp+8 accesses=79 digest=2c5eb79142b406fd",
    "unif/m3/min/cs10cr1/Upper/k5 cost=0x1.12cp+10 accesses=190 digest=08f18ec6f47e80d8",
    "unif/m3/min/cs10cr1/Upper/k50 cost=0x1.8e2p+11 accesses=512 digest=3c40f91f25525d91",
    "unif/m3/min/cs10cr1/Upper/k5cost40 cost=0x1.58p+5 accesses=7 digest=f50ced4c248f46c4",
    "unif/m3/min/cs1cr2/MPro/k1 cost=0x1.9p+8 accesses=200 digest=694a9ef32c00d23a",
    "unif/m3/min/cs1cr2/MPro/k5 cost=0x1.a6p+8 accesses=211 digest=c86f3b91988f10ca",
    "unif/m3/min/cs1cr2/MPro/k50 cost=0x1.52p+9 accesses=338 digest=c8c74b8ce38cb71b",
    "unif/m3/min/cs1cr2/MPro/k5cost40 cost=0x1.4p+5 accesses=20 digest=dcf0843f6f095fcb",
    "unif/m3/min/cs1cr2/NC/k1 cost=0x1.04p+7 accesses=130 digest=694a9ef32c00d23a",
    "unif/m3/min/cs1cr2/NC/k5 cost=0x1.24p+7 accesses=146 digest=c86f3b91988f10ca",
    "unif/m3/min/cs1cr2/NC/k5+extend20 cost=0x1.e8p+8 accesses=364 digest=76808220055ffa82",
    "unif/m3/min/cs1cr2/NC/k50 cost=0x1.31p+9 accesses=452 digest=c8c74b8ce38cb71b",
    "unif/m3/min/cs1cr2/NC/k5cap25 cost=0x1.ap+4 accesses=26 digest=e8a2d15ee3f88ce5",
    "unif/m3/min/cs1cr2/NC/k5cost40 cost=0x1.4p+5 accesses=40 digest=384e10391586db72",
    "unif/m3/min/cs1cr2/NC/k5theta1.5 cost=0x1.1ep+7 accesses=143 digest=9a7871bc03ca1215",
    "unif/m3/min/cs1cr2/Upper/k1 cost=0x1.53p+8 accesses=230 digest=694a9ef32c00d23a",
    "unif/m3/min/cs1cr2/Upper/k5 cost=0x1.78p+8 accesses=255 digest=c86f3b91988f10ca",
    "unif/m3/min/cs1cr2/Upper/k50 cost=0x1.64p+9 accesses=509 digest=c8c74b8ce38cb71b",
    "unif/m3/min/cs1cr2/Upper/k5cost40 cost=0x1.48p+5 accesses=27 digest=901fb7b55dd02a9f",
    "unif/m3/min/probe/MPro/k1 cost=0x1.38p+7 accesses=156 digest=de21283ce20bce5b",
    "unif/m3/min/probe/MPro/k5 cost=0x1.8p+7 accesses=192 digest=07b1db0ddd571c16",
    "unif/m3/min/probe/MPro/k50 cost=0x1.41p+8 accesses=321 digest=261fba6c31f45ff2",
    "unif/m3/min/probe/MPro/k5cost40 cost=0x1.4p+5 accesses=40 digest=fe3e97d30f68fea5",
    "unif/m3/min/probe/NC/k1 cost=0x1.38p+7 accesses=156 digest=de21283ce20bce5b",
    "unif/m3/min/probe/NC/k5 cost=0x1.8p+7 accesses=192 digest=07b1db0ddd571c16",
    "unif/m3/min/probe/NC/k5+extend20 cost=0x1.f2p+7 accesses=249 digest=95eaa6552a46f7e8",
    "unif/m3/min/probe/NC/k50 cost=0x1.41p+8 accesses=321 digest=261fba6c31f45ff2",
    "unif/m3/min/probe/NC/k5cap25 cost=0x1.ap+4 accesses=26 digest=8047d08c126a48c8",
    "unif/m3/min/probe/NC/k5cost40 cost=0x1.4p+5 accesses=40 digest=fe3e97d30f68fea5",
    "unif/m3/min/probe/NC/k5theta1.5 cost=0x1.7p+7 accesses=184 digest=9e5c065b7ece490f",
    "unif/m3/min/probe/Upper/k1 cost=0x1.38p+7 accesses=156 digest=de21283ce20bce5b",
    "unif/m3/min/probe/Upper/k5 cost=0x1.8p+7 accesses=192 digest=07b1db0ddd571c16",
    "unif/m3/min/probe/Upper/k50 cost=0x1.41p+8 accesses=321 digest=261fba6c31f45ff2",
    "unif/m3/min/probe/Upper/k5cost40 cost=0x1.4p+5 accesses=40 digest=fe3e97d30f68fea5",
};

TEST(Eq1GoldenTest, GridIsBitIdentical) {
  const GoldenRecorder recorder = RunGrid();
  if (std::getenv("NC_EQ1_GOLDEN_PRINT") != nullptr) {
    for (const auto& [label, record] : recorder.rows()) {
      std::printf("    \"%s\",\n", record.Row(label).c_str());
    }
  }
  std::map<std::string, std::string> golden;
  for (const char* row : kGolden) {
    const std::string text(row);
    golden.emplace(text.substr(0, text.find(' ')), text);
  }
  ASSERT_EQ(recorder.rows().size(), golden.size());
  for (const auto& [label, record] : recorder.rows()) {
    const auto it = golden.find(label);
    ASSERT_NE(it, golden.end()) << label;
    EXPECT_EQ(record.Row(label), it->second) << record.answer;
  }
}

}  // namespace
}  // namespace nc
