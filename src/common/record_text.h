// The shared codec of the versioned line-record text formats: "ncckpt"
// engine checkpoints (core/checkpoint.h), "nchub" telemetry hubs
// (obs/telemetry.h) and "ncplay" scenarios (playbook/scenario.h).
//
// Grammar, common to all three:
//
//   document := header record*
//   header   := magic ' ' version '\n'
//   record   := key (' ' token)* [' ' rest] '\n'
//
// Tokens are separated by exactly one space and are never empty: a
// blank line, a leading or trailing space, a double space or a missing
// final newline is malformed. Unsigned integers are plain decimal
// (common/numeric.h ParseUInt64: no sign, no prefix), doubles are
// C-hexfloats written by FormatHexDouble (any ParseDouble form is read
// back, never with ',' as the decimal separator), flags are 0 or 1. A
// record may end in an opaque rest-of-line string; an empty one is
// written as the bare key. Which records appear, in what order, and what
// they mean is each format's own vocabulary.
//
// Every reader error is Status::InvalidArgument("<magic> line N: <why>")
// with N the 1-based line number. Lengths read from the document (vector
// counts, record counts) are checked against the tokens or lines that
// remain before anything is sized from them. Callers parse into
// temporaries and commit only on success, so a refused document leaves
// its target untouched.

#ifndef NC_COMMON_RECORD_TEXT_H_
#define NC_COMMON_RECORD_TEXT_H_

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/status.h"

namespace nc {

// Builds one document: the header on construction, then records.
class RecordWriter {
 public:
  RecordWriter(std::string_view magic, uint64_t version);

  // Starts a new record line.
  RecordWriter& Record(std::string_view key);

  RecordWriter& UInt(uint64_t v);
  RecordWriter& Double(double v);
  RecordWriter& Flag(bool v);
  // A bare token, written as is (no spaces).
  RecordWriter& Token(std::string_view token);
  // The opaque rest of the line; nothing is written when empty.
  RecordWriter& Rest(std::string_view text);

  // Counted vectors: the element count, then the elements.
  template <typename T>
  RecordWriter& UInts(const std::vector<T>& values) {
    UInt(values.size());
    for (const T& v : values) UInt(static_cast<uint64_t>(v));
    return *this;
  }
  RecordWriter& Doubles(const std::vector<double>& values);
  RecordWriter& Flags(const std::vector<bool>& values);

  // The document, its last line terminated.
  std::string Finish();

 private:
  std::string out_;
};

// Walks one record's tokens. Every read fails softly: a missing or
// malformed token makes the cursor fail for good (sticky) and returns a
// zero value, so a caller reads a whole record and checks Done() once.
class RecordCursor {
 public:
  RecordCursor() = default;
  // Views `line`, which must outlive the cursor.
  explicit RecordCursor(std::string_view line);

  std::string_view key() const { return key_; }

  uint64_t UInt();
  // UInt() for a narrower unsigned type; fails when the value does not
  // fit instead of truncating it.
  template <typename T>
  T UIntAs() {
    static_assert(std::is_unsigned_v<T>);
    const uint64_t v = UInt();
    if (v > std::numeric_limits<T>::max()) failed_ = true;
    return failed_ ? T{} : static_cast<T>(v);
  }
  double Double();
  bool Flag();
  std::string_view Token();
  // The unread rest of the line, verbatim ("" when nothing is left).
  std::string_view Rest();

  // A length prefix: an element count that must fit in the tokens left,
  // at `per_element` tokens per element. Fails (and returns 0) otherwise.
  uint64_t Count(size_t per_element = 1);

  // Counted vectors written by the RecordWriter counterparts; each fails
  // the cursor on a bad count or element.
  template <typename T>
  void UInts(std::vector<T>* out) {
    out->resize(Count());
    for (T& v : *out) v = static_cast<T>(UInt());
  }
  void Doubles(std::vector<double>* out);
  void Flags(std::vector<bool>* out);

  void Fail() { failed_ = true; }
  bool ok() const { return !failed_; }
  // True when every token was read and none failed.
  bool Done() const { return !failed_ && pos_ == std::string_view::npos; }

 private:
  // Tokens left after pos_ (0 when the line is fully read).
  size_t TokensLeft() const;

  std::string_view line_;
  std::string_view key_;
  // Start of the next unread token; npos once the line is consumed.
  size_t pos_ = std::string_view::npos;
  bool failed_ = false;
};

// Walks a document line by line and names the line in every error.
class RecordReader {
 public:
  // `magic` names the format in errors; `text` must outlive the reader
  // and every cursor it hands out.
  RecordReader(std::string_view magic, std::string_view text);

  // Reads line 1, "<magic> <version>", with version one of `accepted`.
  Status Header(std::initializer_list<uint64_t> accepted, uint64_t* version);

  // True when every line has been read.
  bool AtEnd() const { return next_ == lines_.size(); }

  // Reads the next line as a record. Fails at the end of the document,
  // on a blank line and on an unterminated last line.
  Status Next(RecordCursor* record);

  // --- Fixed-order records -------------------------------------------
  // Opens the next record, which must be `key`, after checking that every
  // token of the record opened before it was read. The first error
  // sticks: from then on Field() hands out a failed cursor, and Finish()
  // returns that error.
  RecordCursor& Field(std::string_view key);
  // Field(key) holding just a count of the records that follow, each
  // `lines_per_element` lines long. Returns 0 (and fails) unless the
  // count fits in the lines left.
  uint64_t CountField(std::string_view key, size_t lines_per_element);
  // Fails with `why` on the line read last, unless an error stuck first.
  void Reject(std::string_view why);
  // Closes the open record; the document must end here. The first error.
  Status Finish();

  // "<magic> line N: <why>" for the line read last (line 1 before any).
  Status Fail(std::string_view why) const;
  // The same, for the line after the last one: what is missing at the
  // end of the document.
  Status FailAtEnd(std::string_view why) const;

 private:
  size_t LinesLeft() const { return lines_.size() - next_; }
  // Fails unless the open record was read completely.
  void Close();
  Status FailLine(size_t line, std::string_view why) const;

  std::string magic_;
  std::vector<std::string_view> lines_;
  // The last line has no '\n'.
  bool unterminated_ = false;
  size_t next_ = 0;
  // The record Field() opened last, and the first error.
  RecordCursor field_;
  Status status_;
};

}  // namespace nc

#endif  // NC_COMMON_RECORD_TEXT_H_
