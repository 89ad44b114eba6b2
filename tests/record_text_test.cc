// The shared record codec (common/record_text.h) and one generic harness
// over the three formats built on it: "ncckpt" checkpoints, "nchub"
// telemetry hubs and "ncplay" scenarios.
//
//   * Codec unit tests: the writer's bytes, the framing rules, strict
//     numerics, sticky cursor failure, counts checked before sizing, and
//     "<magic> line N:" errors.
//   * Round trips under a comma-decimal global locale for every format.
//   * A corruption fuzz over recorded documents (tests/golden/record_text)
//     and a few hand-written ones: drop, duplicate and truncate every line
//     in turn, cut the document after it, append a token, and replace each
//     numeric token with 2^62, -1, nan and 0,5. Every mutation must either
//     be refused with a "<magic> line N:" message, leaving the target
//     untouched, or parse to a value whose re-serialization round-trips.
//     Run under the sanitize preset, a crash or sanitizer report fails it.

#include "common/record_text.h"

#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <clocale>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/numeric.h"
#include "core/checkpoint.h"
#include "obs/telemetry.h"
#include "playbook/scenario.h"

namespace nc {
namespace {

namespace fs = std::filesystem;

const fs::path kCorpus = fs::path(NC_GOLDEN_DIR) / "record_text";

std::string ReadFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// True when `status` is "<magic> line N: <why>" with N >= 1.
bool NamesLine(const Status& status, const std::string& magic) {
  const std::string prefix = magic + " line ";
  const std::string& message = status.message();
  if (message.rfind(prefix, 0) != 0) return false;
  size_t pos = prefix.size();
  const size_t digits = pos;
  while (pos < message.size() &&
         std::isdigit(static_cast<unsigned char>(message[pos]))) {
    ++pos;
  }
  return pos > digits && message[digits] != '0' &&
         message.compare(pos, 2, ": ") == 0;
}

// --- Codec unit tests -------------------------------------------------------

TEST(RecordTextTest, WriterEmitsHeaderTokensAndBareKeys) {
  RecordWriter w("demo", 3);
  w.Record("a").UInt(7).Double(1.5).Flag(true).Token("x");
  w.Record("empty").Rest("");
  w.Record("rest").Rest("free  text");
  w.Record("vec").UInts(std::vector<size_t>{4, 5});
  w.Record("dvec").Doubles({-0.25, std::numeric_limits<double>::infinity()});
  w.Record("fvec").Flags({true, false});
  EXPECT_EQ(w.Finish(),
            "demo 3\n"
            "a 7 0x1.8p+0 1 x\n"
            "empty\n"
            "rest free  text\n"
            "vec 2 4 5\n"
            "dvec 2 -0x1p-2 inf\n"
            "fvec 2 1 0\n");
}

TEST(RecordTextTest, ReaderRoundTripsWhatTheWriterWrote) {
  RecordWriter w("demo", 3);
  w.Record("a").UInt(7).Double(0.1).Flag(false).Token("x").Rest("r s");
  w.Record("vec").UInts(std::vector<uint32_t>{4, 5});
  w.Record("dvec").Doubles({-0.25});
  w.Record("fvec").Flags({true, false});
  const std::string text = w.Finish();

  RecordReader r("demo", text);
  uint64_t version = 0;
  ASSERT_TRUE(r.Header({2, 3}, &version).ok());
  EXPECT_EQ(version, 3u);
  RecordCursor& a = r.Field("a");
  EXPECT_EQ(a.UInt(), 7u);
  EXPECT_EQ(a.Double(), 0.1);  // Bit-exact through the hexfloat.
  EXPECT_FALSE(a.Flag());
  EXPECT_EQ(a.Token(), "x");
  EXPECT_EQ(a.Rest(), "r s");
  EXPECT_TRUE(a.Done());
  std::vector<uint32_t> uints;
  r.Field("vec").UInts(&uints);
  EXPECT_EQ(uints, (std::vector<uint32_t>{4, 5}));
  std::vector<double> doubles;
  r.Field("dvec").Doubles(&doubles);
  EXPECT_EQ(doubles, std::vector<double>{-0.25});
  std::vector<bool> flags;
  r.Field("fvec").Flags(&flags);
  EXPECT_EQ(flags, (std::vector<bool>{true, false}));
  EXPECT_TRUE(r.Finish().ok());
}

TEST(RecordTextTest, CursorFailureIsSticky) {
  RecordCursor c("key 1 x 3");
  EXPECT_EQ(c.key(), "key");
  EXPECT_EQ(c.UInt(), 1u);
  EXPECT_EQ(c.UInt(), 0u);  // "x" is not a number.
  EXPECT_FALSE(c.ok());
  EXPECT_EQ(c.UInt(), 0u);  // Stays failed even though "3" would parse.
  EXPECT_FALSE(c.Done());
}

TEST(RecordTextTest, NumbersAreStrictAndLocaleFree) {
  for (const char* bad : {"-1", "+1", "0x10", " 1", "1.0", "1,0", ""}) {
    const std::string line = std::string("k ") + bad;
    RecordCursor c(line);
    c.UInt();
    EXPECT_FALSE(c.Done()) << bad;
  }
  for (const char* bad : {"0,5", "1.5.", "0x1,8p+1", "--1", "1e"}) {
    const std::string line = std::string("k ") + bad;
    RecordCursor c(line);
    c.Double();
    EXPECT_FALSE(c.Done()) << bad;
  }
  RecordCursor flag("k 2");
  flag.Flag();
  EXPECT_FALSE(flag.Done());
  // Narrow reads refuse what does not fit instead of truncating it.
  RecordCursor narrow("k 4294967295 4294967296");
  EXPECT_EQ(narrow.UIntAs<uint32_t>(), 4294967295u);
  EXPECT_EQ(narrow.UIntAs<uint32_t>(), 0u);
  EXPECT_FALSE(narrow.ok());
  // Every double form ParseDouble accepts reads back.
  RecordCursor ok("k 0.5 -inf nan 0x1p-1");
  EXPECT_EQ(ok.Double(), 0.5);
  EXPECT_EQ(ok.Double(), -std::numeric_limits<double>::infinity());
  EXPECT_TRUE(std::isnan(ok.Double()));
  EXPECT_EQ(ok.Double(), 0.5);
  EXPECT_TRUE(ok.Done());
}

// Single spaces between never-empty tokens, '\n' after every line.
TEST(RecordTextTest, FramingIsStrict) {
  const struct {
    const char* text;
    const char* error;
  } cases[] = {
      {"demo 1\nk 1  2\n", "demo line 2: malformed \"k\""},
      {"demo 1\nk 1\t2\n", "demo line 2: malformed \"k\""},
      {"demo 1\nk 1 2 \n", "demo line 2: malformed \"k\""},
      {"demo 1\n k 1 2\n", "demo line 2: line starts with a space"},
      {"demo 1\n\nk 1 2\n", "demo line 2: blank line"},
      {"demo 1\nk 1 2", "demo line 2: missing final newline"},
      {"demo 1\nk 1 2\nk 1 2\n", "demo line 3: content after the last record"},
      {"demo 1\n", "demo line 2: missing record \"k\""},
      {"demo 1\nq 1 2\n", "demo line 2: expected record \"k\", got \"q\""},
      {"demo 1 \nk 1 2\n", "demo line 1: expected header \"demo 1\""},
      {"demo 2\nk 1 2\n", "demo line 1: expected header \"demo 1\""},
      {"", "demo line 1: expected header \"demo 1\""},
  };
  for (const auto& test : cases) {
    RecordReader r("demo", test.text);
    uint64_t version = 0;
    Status status = r.Header({1}, &version);
    if (status.ok()) {
      RecordCursor& c = r.Field("k");
      c.UInt();
      c.UInt();
      status = r.Finish();
    }
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << test.text;
    EXPECT_EQ(status.message(), test.error) << test.text;
  }
}

TEST(RecordTextTest, RestOfLineIsVerbatimButNotDangling) {
  RecordCursor bare("policy");
  EXPECT_EQ(bare.Rest(), "");
  EXPECT_TRUE(bare.Done());
  RecordCursor spaced("policy a  b\tc");
  EXPECT_EQ(spaced.Rest(), "a  b\tc");
  EXPECT_TRUE(spaced.Done());
  // "key " would re-serialize as the bare key: not canonical.
  RecordCursor dangling("policy ");
  dangling.Rest();
  EXPECT_FALSE(dangling.Done());
}

// Lengths read from the document never size anything before they are
// checked against what the document can still hold.
TEST(RecordTextTest, CountsAreCheckedBeforeSizing) {
  RecordCursor fits("v 2 a b c d");
  EXPECT_EQ(fits.Count(2), 2u);
  RecordCursor huge("v 4611686018427387904 1 2");
  std::vector<double> values;
  huge.Doubles(&values);
  EXPECT_FALSE(huge.ok());
  EXPECT_TRUE(values.empty());
  RecordCursor odd("v 2 a b c");
  EXPECT_EQ(odd.Count(2), 0u);
  EXPECT_FALSE(odd.ok());

  const std::string doc = "demo 1\nn 2\nx\ny\nz\n";
  RecordReader lines("demo", doc);
  uint64_t version = 0;
  ASSERT_TRUE(lines.Header({1}, &version).ok());
  EXPECT_EQ(lines.CountField("n", 2), 0u);  // 2 x 2 lines, 3 left.
  EXPECT_EQ(lines.Finish().message(),
            "demo line 2: \"n\" count 2 exceeds the lines left");
  RecordReader ok("demo", doc);
  ASSERT_TRUE(ok.Header({1}, &version).ok());
  EXPECT_EQ(ok.CountField("n", 1), 2u);
}

TEST(RecordTextTest, RejectKeepsTheFirstError) {
  RecordReader r("demo", "demo 1\nk x\nq 1\n");
  uint64_t version = 0;
  ASSERT_TRUE(r.Header({1}, &version).ok());
  r.Field("k").UInt();
  r.Reject("a later complaint");
  r.Field("q").UInt();
  EXPECT_EQ(r.Finish().message(), "demo line 2: malformed \"k\"");
}

// --- The three formats under one harness ------------------------------------

// One format under test, type-erased: Parse() loads `doc` into a target
// already holding `sentinel` and reports the target's serialization
// afterwards, whether or not the parse succeeded.
struct Format {
  std::string magic;
  std::function<Status(const std::string& doc, const std::string& sentinel,
                       std::string* after)>
      parse;
};

template <typename T, typename ParseFn, typename SerializeFn>
Format MakeFormat(std::string magic, ParseFn parse_fn,
                  SerializeFn serialize_fn,
                  std::function<void(T*)> use = nullptr) {
  Format format;
  format.magic = std::move(magic);
  format.parse = [parse_fn, serialize_fn, use](const std::string& doc,
                                               const std::string& sentinel,
                                               std::string* after) {
    T target;
    EXPECT_TRUE(parse_fn(sentinel, &target).ok());
    const Status status = parse_fn(doc, &target);
    *after = serialize_fn(target);
    // Exercise what was loaded, so a state the parser let through that
    // the type cannot live with shows up here (and under the sanitizers).
    if (status.ok() && use != nullptr) use(&target);
    return status;
  };
  return format;
}

Format CheckpointFormat() {
  return MakeFormat<EngineCheckpoint>(
      "ncckpt",
      [](const std::string& doc, EngineCheckpoint* out) {
        return ParseCheckpoint(doc, out);
      },
      [](const EngineCheckpoint& ck) { return SerializeCheckpoint(ck); });
}

Format HubFormat() {
  return MakeFormat<obs::TelemetryHub>(
      "nchub",
      [](const std::string& doc, obs::TelemetryHub* hub) {
        return hub->Deserialize(doc);
      },
      [](const obs::TelemetryHub& hub) { return hub.Serialize(); },
      [](obs::TelemetryHub* hub) {
        // Every slot the recorded hubs use: feeds walk each hedge ring.
        for (PredicateId i = 0; i < 3; ++i) {
          for (size_t r = 0; r < 3; ++r) {
            hub->ObserveReplicaService(i, r, 1.0);
            hub->AdaptiveHedgeDelay(i, r);
          }
        }
      });
}

Format ScenarioFormat() {
  return MakeFormat<playbook::ScenarioSpec>(
      "ncplay",
      [](const std::string& doc, playbook::ScenarioSpec* out) {
        return playbook::ParseScenario(doc, out);
      },
      [](const playbook::ScenarioSpec& spec) { return spec.Serialize(); });
}

// A scenario with every optional record (groups, pages, quota, two
// replicas, srg) and infinite costs; the generated chaos variants in the
// corpus rarely carry all of them.
constexpr char kAllRecordsScenario[] =
    "ncplay 1\n"
    "budget 0x1.f4p+7 0x1.9p+8\n"
    "cost 3 0x1p+0 inf inf 0x1.4p+2 0x1p-3 0x1.4p+3\n"
    "data 300 3 gaussian -0x1.8p-1 777\n"
    "dist 0x1.999999999999ap-2 0x1p-2 0x1p+1\n"
    "fault 0x1p-5 0x1p-6 0x0p+0 0\n"
    "groups 3 0 1 1\n"
    "hedge 0x1.9p+3 0\n"
    "kill 0\n"
    "name fancy_0:rt.test\n"
    "pages 3 4 1 8\n"
    "query min 7\n"
    "quota 3 0 40 0\n"
    "replica 0 0x1p+0 0x1p+0 0x0p+0 0x0p+0 0x1p+0 0x0p+0 0x0p+0 0x0p+0 0\n"
    "replica 1 0x1.8p+0 0x1p+0 0x0p+0 0x0p+0 0x1p+0 0x1p-4 0x0p+0 0x0p+0 0\n"
    "routing least_latency\n"
    "seeds 9 10 11\n"
    "srg 3 0x1p-1 0x1p-2 0x1p+0 2 0 1\n"
    "workers 0\n"
    "end\n";

// A hub whose one hedge ring is exactly full (64 samples, 64
// observations, cursor wrapped to 0).
std::string FullHedgeRingHub() {
  std::string doc = "nchub 2\nqueries 0\nhedge 0 0 0 64 64";
  for (int i = 0; i < 64; ++i) doc += " 0x1p+0";
  return doc + "\nend\n";
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  size_t start = 0;
  while (start < text.size()) {
    const size_t nl = text.find('\n', start);
    lines.push_back(text.substr(start, nl - start));
    if (nl == std::string::npos) break;
    start = nl + 1;
  }
  return lines;
}

std::string JoinLines(const std::vector<std::string>& lines) {
  std::string text;
  for (const std::string& line : lines) text += line + "\n";
  return text;
}

bool IsNumeric(const std::string& token) {
  uint64_t u = 0;
  double d = 0.0;
  return ParseUInt64(token, &u) || ParseDouble(token, &d);
}

// Every mutation of `doc` the fuzz tries.
std::vector<std::string> Mutations(const std::string& doc) {
  const std::vector<std::string> lines = SplitLines(doc);
  std::vector<std::string> out;
  out.push_back(doc.substr(0, doc.size() - 1));  // No final newline.
  out.push_back(doc + "\n");                       // Trailing blank line.
  for (size_t i = 0; i < lines.size(); ++i) {
    std::vector<std::string> edited = lines;
    edited.erase(edited.begin() + static_cast<std::ptrdiff_t>(i));
    out.push_back(JoinLines(edited));  // Dropped.
    edited = lines;
    edited.insert(edited.begin() + static_cast<std::ptrdiff_t>(i), lines[i]);
    out.push_back(JoinLines(edited));  // Duplicated.
    edited = lines;
    edited[i] = lines[i].substr(0, lines[i].size() / 2);
    out.push_back(JoinLines(edited));  // Truncated in the middle.
    out.push_back(JoinLines(std::vector<std::string>(
        lines.begin(), lines.begin() + static_cast<std::ptrdiff_t>(i))));
    for (const char* extra : {" 7", " 0xnot-a-number", "  ", "\t1"}) {
      edited = lines;
      edited[i] += extra;
      out.push_back(JoinLines(edited));  // Appended token.
    }
    // Each numeric token replaced in turn.
    size_t start = 0;
    while (start <= lines[i].size()) {
      size_t end = lines[i].find(' ', start);
      if (end == std::string::npos) end = lines[i].size();
      if (IsNumeric(lines[i].substr(start, end - start))) {
        for (const char* value : {"4611686018427387904", "-1", "nan", "0,5"}) {
          edited = lines;
          edited[i] = lines[i].substr(0, start) + value + lines[i].substr(end);
          out.push_back(JoinLines(edited));
        }
      }
      start = end + 1;
    }
  }
  return out;
}

// Runs every mutation of `doc` through `format`, with `sentinel` (a
// valid document) loaded in the target beforehand.
void FuzzDocument(const Format& format, const std::string& doc,
                  const std::string& sentinel, const std::string& label) {
  std::string loaded;
  ASSERT_TRUE(format.parse(doc, sentinel, &loaded).ok()) << label;
  ASSERT_EQ(loaded, doc) << label;
  std::string before;
  ASSERT_TRUE(format.parse(sentinel, sentinel, &before).ok()) << label;
  size_t refused = 0;
  size_t accepted = 0;
  for (const std::string& mutated : Mutations(doc)) {
    std::string after;
    const Status status = format.parse(mutated, sentinel, &after);
    if (!status.ok()) {
      ++refused;
      EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << label;
      EXPECT_TRUE(NamesLine(status, format.magic))
          << label << ": " << status << "\n" << mutated;
      EXPECT_EQ(after, before) << label << ": target changed by\n" << mutated;
      continue;
    }
    ++accepted;
    std::string again;
    const Status reparsed = format.parse(after, sentinel, &again);
    EXPECT_TRUE(reparsed.ok()) << label << ": " << reparsed << "\n" << after;
    EXPECT_EQ(again, after) << label << ": unstable re-serialization of\n"
                            << mutated;
  }
  EXPECT_GT(refused, 0u) << label;
  // Numeric replacements that fit (2^62 as a count of accesses, -1 as a
  // cost) must load: the fuzz proves the accepting side too.
  EXPECT_GT(accepted, 0u) << label;
}

std::vector<std::string> CorpusDocs(const std::string& dir,
                                    std::initializer_list<const char*> names) {
  std::vector<std::string> docs;
  for (const char* name : names) {
    docs.push_back(ReadFile(kCorpus / dir / name));
    EXPECT_FALSE(docs.back().empty()) << dir << "/" << name;
  }
  return docs;
}

TEST(RecordTextFuzzTest, CheckpointCorruptionNeverHalfParses) {
  const Format format = CheckpointFormat();
  const std::vector<std::string> docs = CorpusDocs(
      "ncckpt", {"plain_005.ncckpt", "injector_002.ncckpt",
                 "fleet_001.ncckpt", "settled_001.ncckpt",
                 "theta_001.ncckpt"});
  for (size_t i = 0; i < docs.size(); ++i) {
    FuzzDocument(format, docs[i], docs[(i + 1) % docs.size()],
                 "ncckpt doc " + std::to_string(i));
  }
}

TEST(RecordTextFuzzTest, HubCorruptionNeverHalfParses) {
  const Format format = HubFormat();
  std::vector<std::string> docs = CorpusDocs(
      "nchub", {"fed_001.nchub", "fed_004.nchub", "fed_009.nchub"});
  docs.push_back(ReadFile(kCorpus / "nchub_v1" / "v1_as_v2.nchub"));
  docs.push_back(FullHedgeRingHub());
  for (size_t i = 0; i < docs.size(); ++i) {
    FuzzDocument(format, docs[i], docs[(i + 1) % docs.size()],
                 "nchub doc " + std::to_string(i));
  }
}

TEST(RecordTextFuzzTest, ScenarioCorruptionNeverHalfParses) {
  const Format format = ScenarioFormat();
  std::vector<std::string> docs = CorpusDocs(
      "ncplay", {"chaos_000.ncplay", "chaos_007.ncplay", "chaos_013.ncplay"});
  docs.push_back(kAllRecordsScenario);
  for (size_t i = 0; i < docs.size(); ++i) {
    FuzzDocument(format, docs[i], docs[(i + 1) % docs.size()],
                 "ncplay doc " + std::to_string(i));
  }
}

// Documents that once got past a parser and then broke the process.
TEST(RecordTextFuzzTest, KnownBadDocumentsAreRefusedByLine) {
  std::string ring = "nchub 2\nqueries 0\nhedge 0 0 1000 64 64";
  for (int i = 0; i < 64; ++i) ring += " 0x1p+0";
  ring += "\nend\n";
  std::string after;
  const Format hub = HubFormat();
  const Status ring_status = hub.parse(ring, FullHedgeRingHub(), &after);
  EXPECT_EQ(ring_status.message().rfind("nchub line 3: ", 0), 0u)
      << ring_status;

  const Status wide_slot = hub.parse(
      "nchub 2\nhealth 0 4294967296 0 0 0x0p+0 0 0 0x0p+0\nend\n",
      FullHedgeRingHub(), &after);
  EXPECT_EQ(wide_slot.message().rfind("nchub line 2: ", 0), 0u) << wide_slot;

  const Format checkpoint = CheckpointFormat();
  const std::string ck = ReadFile(kCorpus / "ncckpt" / "plain_005.ncckpt");
  for (const char* key : {"pool ", "fleet_slots "}) {
    const size_t at = ck.find(std::string("\n") + key);
    ASSERT_NE(at, std::string::npos) << key;
    const size_t eol = ck.find('\n', at + 1);
    const std::string huge = ck.substr(0, at + 1) + key +
                             "4611686018427387904" + ck.substr(eol);
    const Status status = checkpoint.parse(huge, ck, &after);
    EXPECT_TRUE(NamesLine(status, "ncckpt")) << status;
    EXPECT_EQ(after, ck);
  }

  const Format scenario = ScenarioFormat();
  const Status two_names =
      scenario.parse("ncplay 1\nname x y\nend\n", kAllRecordsScenario, &after);
  EXPECT_EQ(two_names.message().rfind("ncplay line 2: ", 0), 0u) << two_names;
}

// An RNG stream state is read as checked plain-decimal words, so a
// corrupt one is refused at parse time, on its own line, instead of
// loading as opaque text and failing later at Resume.
TEST(RecordTextFuzzTest, CheckpointRngStatesAreCheckedWords) {
  const Format checkpoint = CheckpointFormat();
  for (const char* name : {"plain_005.ncckpt", "fleet_001.ncckpt"}) {
    const std::string ck = ReadFile(kCorpus / "ncckpt" / name);
    const std::vector<std::string> lines = SplitLines(ck);
    size_t checked = 0;
    for (size_t i = 0; i < lines.size(); ++i) {
      const std::string& line = lines[i];
      const size_t space = line.find(' ');
      if (space == std::string::npos) continue;  // Bare key: empty state.
      const std::string key = line.substr(0, space);
      if (!key.ends_with("_rng")) continue;
      const std::string line_no = " line " + std::to_string(i + 1) + ": ";
      const size_t last_space = line.rfind(' ');
      std::vector<std::string> bad;
      // A word that is no plain decimal.
      bad.push_back(key + " nan" + line.substr(line.find(' ', space + 1)));
      bad.push_back(key + " -1" + line.substr(line.find(' ', space + 1)));
      // One word short, one too many.
      bad.push_back(line.substr(0, last_space));
      bad.push_back(line + " 7");
      // A position index past the state.
      bad.push_back(line.substr(0, last_space) + " 313");
      for (const std::string& replacement : bad) {
        std::vector<std::string> edited = lines;
        edited[i] = replacement;
        std::string after;
        const Status status = checkpoint.parse(JoinLines(edited), ck, &after);
        EXPECT_EQ(status.message().rfind("ncckpt" + line_no, 0), 0u)
            << name << " " << key << ": " << status;
        EXPECT_EQ(after, ck);
      }
      ++checked;
    }
    EXPECT_GE(checked, 2u) << name;
  }
}

// Source group ids are ints: one past INT_MAX used to wrap silently on
// load, and a negative one to serialize as a huge unsigned token.
TEST(RecordTextFuzzTest, ScenarioGroupsAreRangeChecked) {
  const Format scenario = ScenarioFormat();
  std::string doc = kAllRecordsScenario;
  const std::string groups = "groups 3 0 1 1\n";
  const size_t at = doc.find(groups);
  ASSERT_NE(at, std::string::npos);
  std::string after;
  for (const char* bad :
       {"groups 3 4611686018427387904 1 1\n", "groups 3 2147483648 1 1\n",
        "groups 3 -1 1 1\n"}) {
    std::string mutated = doc;
    mutated.replace(at, groups.size(), bad);
    const Status status =
        scenario.parse(mutated, kAllRecordsScenario, &after);
    EXPECT_EQ(status.message().rfind("ncplay line 7: ", 0), 0u)
        << bad << status;
    EXPECT_EQ(after, kAllRecordsScenario);
  }
  doc.replace(at, groups.size(), "groups 3 2147483647 1 1\n");
  EXPECT_TRUE(scenario.parse(doc, kAllRecordsScenario, &after).ok());
  EXPECT_EQ(after, doc);

  playbook::ScenarioSpec spec;
  ASSERT_TRUE(playbook::ParseScenario(kAllRecordsScenario, &spec).ok());
  spec.attribute_groups = {0, -1, -1};
  EXPECT_FALSE(spec.Validate().ok());
}

// Health and cost EWMAs feed least-latency routing and cost prediction:
// a non-finite one must not load (hedge samples already could not).
TEST(RecordTextFuzzTest, HubHealthAndCostMustBeFinite) {
  const Format hub = HubFormat();
  std::string after;
  for (const char* bad : {
           "nchub 2\nhealth 0 1 0 0 0x0p+0 0 1 nan\nend\n",
           "nchub 2\nhealth 0 1 0 1 inf 0 1 0x1p+0\nend\n",
           "nchub 2\nhealth 0 1 0 1 nan 0 0 0x0p+0\nend\n",
           "nchub 2\ncost 0 1 inf\nend\n",
           "nchub 2\ncost 1 0 -nan\nend\n",
       }) {
    const Status status = hub.parse(bad, FullHedgeRingHub(), &after);
    EXPECT_EQ(status.message().rfind("nchub line 2: ", 0), 0u)
        << bad << status;
    EXPECT_EQ(after, FullHedgeRingHub());
  }
  const std::string finite =
      "nchub 2\nqueries 0\ncost 0 1 0x1.8p+0\n"
      "health 0 1 0 1 0x1p+1 3 1 0x1p-2\nend\n";
  EXPECT_TRUE(hub.parse(finite, FullHedgeRingHub(), &after).ok());
  EXPECT_EQ(after, finite);
}

// --- Comma-decimal locale ---------------------------------------------------

// Pins the global C locale for one test and restores it on exit (the
// locale_test.cc pattern).
class ScopedLocale {
 public:
  ScopedLocale() {
    const char* current = std::setlocale(LC_ALL, nullptr);
    saved_ = current != nullptr ? current : "C";
  }
  ~ScopedLocale() { std::setlocale(LC_ALL, saved_.c_str()); }

  ScopedLocale(const ScopedLocale&) = delete;
  ScopedLocale& operator=(const ScopedLocale&) = delete;

  // False (locale left unchanged) when the host has no comma-decimal
  // locale; the round trips then run under the default locale.
  bool UseCommaDecimal() {
    for (const char* name :
         {"de_DE.UTF-8", "de_DE.utf8", "de_DE", "fr_FR.UTF-8", "fr_FR.utf8",
          "fr_FR", "it_IT.UTF-8", "es_ES.UTF-8"}) {
      if (std::setlocale(LC_ALL, name) == nullptr) continue;
      const std::lconv* conv = std::localeconv();
      if (conv != nullptr && conv->decimal_point != nullptr &&
          conv->decimal_point[0] == ',') {
        return true;
      }
    }
    std::setlocale(LC_ALL, saved_.c_str());
    return false;
  }

 private:
  std::string saved_;
};

TEST(RecordTextLocaleTest, EveryFormatRoundTripsUnderCommaLocale) {
  ScopedLocale locale;
  locale.UseCommaDecimal();
  const struct {
    Format format;
    std::string dir;
    std::string extension;
  } sets[] = {{CheckpointFormat(), "ncckpt", ".ncckpt"},
              {HubFormat(), "nchub", ".nchub"},
              {ScenarioFormat(), "ncplay", ".ncplay"}};
  for (const auto& set : sets) {
    size_t docs = 0;
    for (const fs::directory_entry& entry :
         fs::directory_iterator(kCorpus / set.dir)) {
      if (entry.path().extension() != set.extension) continue;
      ++docs;
      const std::string doc = ReadFile(entry.path());
      std::string after;
      const Status status = set.format.parse(doc, doc, &after);
      ASSERT_TRUE(status.ok()) << entry.path() << ": " << status;
      EXPECT_EQ(after, doc) << entry.path();
    }
    EXPECT_GT(docs, 0u) << set.dir;
  }

  // Values written under the locale: no ',' anywhere, bit-exact back.
  RecordWriter w("demo", 1);
  w.Record("d").Double(0.1).Double(-2.5e-300).Double(1e300);
  const std::string text = w.Finish();
  EXPECT_EQ(text.find(','), std::string::npos) << text;
  RecordReader r("demo", text);
  uint64_t version = 0;
  ASSERT_TRUE(r.Header({1}, &version).ok());
  RecordCursor& d = r.Field("d");
  EXPECT_EQ(d.Double(), 0.1);
  EXPECT_EQ(d.Double(), -2.5e-300);
  EXPECT_EQ(d.Double(), 1e300);
  EXPECT_TRUE(r.Finish().ok());
}

}  // namespace
}  // namespace nc
