#include "common/record_text.h"

#include <algorithm>

#include "common/numeric.h"

namespace nc {

namespace {

// `"text"`, for error messages.
std::string Quote(std::string_view text) {
  std::string out = "\"";
  out.append(text);
  out.push_back('"');
  return out;
}

}  // namespace

// --- RecordWriter ---------------------------------------------------------

RecordWriter::RecordWriter(std::string_view magic, uint64_t version) {
  out_.append(magic);
  UInt(version);
}

RecordWriter& RecordWriter::Record(std::string_view key) {
  out_.push_back('\n');
  out_.append(key);
  return *this;
}

RecordWriter& RecordWriter::UInt(uint64_t v) {
  out_.push_back(' ');
  out_ += std::to_string(v);
  return *this;
}

RecordWriter& RecordWriter::Double(double v) {
  out_.push_back(' ');
  out_ += FormatHexDouble(v);
  return *this;
}

RecordWriter& RecordWriter::Flag(bool v) { return UInt(v ? 1 : 0); }

RecordWriter& RecordWriter::Token(std::string_view token) {
  out_.push_back(' ');
  out_.append(token);
  return *this;
}

RecordWriter& RecordWriter::Rest(std::string_view text) {
  if (!text.empty()) Token(text);
  return *this;
}

RecordWriter& RecordWriter::Doubles(const std::vector<double>& values) {
  UInt(values.size());
  for (const double v : values) Double(v);
  return *this;
}

RecordWriter& RecordWriter::Flags(const std::vector<bool>& values) {
  UInt(values.size());
  for (const bool v : values) Flag(v);
  return *this;
}

std::string RecordWriter::Finish() {
  out_.push_back('\n');
  return std::move(out_);
}

// --- RecordCursor ---------------------------------------------------------

RecordCursor::RecordCursor(std::string_view line) : line_(line) {
  const size_t space = line.find(' ');
  key_ = line.substr(0, space);
  pos_ = space == std::string_view::npos ? space : space + 1;
}

std::string_view RecordCursor::Token() {
  if (failed_ || pos_ == std::string_view::npos) {
    failed_ = true;
    return {};
  }
  const size_t end = line_.find(' ', pos_);
  const std::string_view token = line_.substr(pos_, end - pos_);
  pos_ = end == std::string_view::npos ? end : end + 1;
  if (token.empty()) failed_ = true;
  return failed_ ? std::string_view() : token;
}

uint64_t RecordCursor::UInt() {
  uint64_t v = 0;
  const std::string_view token = Token();
  if (!failed_ && !ParseUInt64(token, &v)) failed_ = true;
  return failed_ ? 0 : v;
}

double RecordCursor::Double() {
  double v = 0.0;
  const std::string_view token = Token();
  if (!failed_ && !ParseDouble(token, &v)) failed_ = true;
  return failed_ ? 0.0 : v;
}

bool RecordCursor::Flag() {
  const uint64_t v = UInt();
  if (v > 1) failed_ = true;
  return !failed_ && v == 1;
}

std::string_view RecordCursor::Rest() {
  if (failed_ || pos_ == std::string_view::npos) return {};
  const std::string_view rest = line_.substr(pos_);
  pos_ = std::string_view::npos;
  // A separator with nothing after it: the writer emits a bare key.
  if (rest.empty()) failed_ = true;
  return rest;
}

size_t RecordCursor::TokensLeft() const {
  if (pos_ == std::string_view::npos) return 0;
  const std::string_view rest = line_.substr(pos_);
  return 1 + static_cast<size_t>(std::count(rest.begin(), rest.end(), ' '));
}

uint64_t RecordCursor::Count(size_t per_element) {
  const uint64_t n = UInt();
  if (failed_ || n > TokensLeft() / per_element) {
    failed_ = true;
    return 0;
  }
  return n;
}

void RecordCursor::Doubles(std::vector<double>* out) {
  out->resize(Count());
  for (double& v : *out) v = Double();
}

void RecordCursor::Flags(std::vector<bool>* out) {
  out->resize(Count());
  for (size_t i = 0; i < out->size(); ++i) (*out)[i] = Flag();
}

// --- RecordReader ---------------------------------------------------------

RecordReader::RecordReader(std::string_view magic, std::string_view text)
    : magic_(magic) {
  size_t pos = 0;
  while (pos < text.size()) {
    const size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) {
      lines_.push_back(text.substr(pos));
      unterminated_ = true;
      break;
    }
    lines_.push_back(text.substr(pos, eol - pos));
    pos = eol + 1;
  }
}

Status RecordReader::Header(std::initializer_list<uint64_t> accepted,
                            uint64_t* version) {
  std::string expected;
  for (const uint64_t v : accepted) {
    if (!expected.empty()) expected += " or ";
    expected += Quote(magic_ + " " + std::to_string(v));
  }
  const Status wrong = FailLine(1, "expected header " + expected);
  if (AtEnd()) return wrong;
  RecordCursor header;
  NC_RETURN_IF_ERROR(Next(&header));
  const uint64_t v = header.UInt();
  if (header.key() != magic_ || !header.Done() ||
      std::find(accepted.begin(), accepted.end(), v) == accepted.end()) {
    return wrong;
  }
  *version = v;
  return Status::OK();
}

Status RecordReader::Next(RecordCursor* record) {
  if (AtEnd()) return FailAtEnd("unexpected end of document");
  const std::string_view line = lines_[next_++];
  if (unterminated_ && AtEnd()) return Fail("missing final newline");
  if (line.empty()) return Fail("blank line");
  *record = RecordCursor(line);
  if (record->key().empty()) return Fail("line starts with a space");
  return Status::OK();
}

RecordCursor& RecordReader::Field(std::string_view key) {
  Close();
  if (status_.ok()) {
    if (AtEnd()) {
      status_ = FailAtEnd(std::string("missing record ") + Quote(key));
    } else {
      status_ = Next(&field_);
      if (status_.ok() && field_.key() != key) {
        status_ = Fail(std::string("expected record ") + Quote(key) +
                       ", got " + Quote(field_.key()));
      }
    }
  }
  if (!status_.ok()) field_.Fail();
  return field_;
}

uint64_t RecordReader::CountField(std::string_view key,
                                  size_t lines_per_element) {
  const uint64_t n = Field(key).UInt();
  Close();
  if (status_.ok() && n > LinesLeft() / lines_per_element) {
    status_ = Fail(Quote(key) + " count " + std::to_string(n) +
                   " exceeds the lines left");
  }
  return status_.ok() ? n : 0;
}

void RecordReader::Reject(std::string_view why) {
  Close();
  if (status_.ok()) status_ = Fail(why);
}

Status RecordReader::Finish() {
  Close();
  if (status_.ok() && !AtEnd()) {
    ++next_;
    status_ = Fail("content after the last record");
  }
  return status_;
}

void RecordReader::Close() {
  if (status_.ok() && !field_.Done()) {
    status_ = Fail(std::string("malformed ") + Quote(field_.key()));
  }
}

Status RecordReader::Fail(std::string_view why) const {
  return FailLine(std::max<size_t>(next_, 1), why);
}

Status RecordReader::FailAtEnd(std::string_view why) const {
  return FailLine(lines_.size() + 1, why);
}

Status RecordReader::FailLine(size_t line, std::string_view why) const {
  return Status::InvalidArgument(magic_ + " line " + std::to_string(line) +
                                 ": " + std::string(why));
}

}  // namespace nc
