#include "record/spill_file.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cctype>
#include <cerrno>
#include <cstring>
#include <filesystem>

namespace blackbox {

namespace {

constexpr uint64_t kMagic = 0x324C4C4950534242ULL;  // "BBSPILL2" little-endian

// A cap on the header sketch block: a batch run's sketch is a few dozen bytes
// per column, so anything past this is a garbled length prefix, not a sketch.
constexpr uint32_t kMaxSketchBytes = 1u << 24;

template <typename T>
void AppendPod(const T& v, std::string* out) {
  const char* p = reinterpret_cast<const char*>(&v);
  out->append(p, sizeof(T));
}

template <typename T>
bool ReadPod(const char** p, const char* end, T* out) {
  if (static_cast<size_t>(end - *p) < sizeof(T)) return false;
  std::memcpy(out, *p, sizeof(T));
  *p += sizeof(T);
  return true;
}

void EncodeValue(const Value& v, std::string* out) {
  out->push_back(static_cast<char>(v.type()));
  switch (v.type()) {
    case ValueType::kNull:
      break;
    case ValueType::kInt:
      AppendPod<int64_t>(v.AsInt(), out);
      break;
    case ValueType::kDouble:
      AppendPod<double>(v.AsDouble(), out);
      break;
    case ValueType::kString: {
      std::string_view s = v.AsString();
      AppendPod<uint32_t>(static_cast<uint32_t>(s.size()), out);
      out->append(s);
      break;
    }
  }
}

}  // namespace

void EncodeRecord(const Record& r, std::string* out) {
  AppendPod<uint32_t>(static_cast<uint32_t>(r.num_fields()), out);
  for (size_t i = 0; i < r.num_fields(); ++i) EncodeValue(r.field(i), out);
}

StatusOr<Record> DecodeRecord(const char* data, size_t size) {
  const char* p = data;
  const char* end = data + size;
  uint32_t nfields = 0;
  if (!ReadPod(&p, end, &nfields)) {
    return Status::Corruption("spill record truncated in field count");
  }
  // Every field takes at least its tag byte, so a corrupt count cannot
  // reserve more fields than there are bytes left.
  std::vector<Value> fields;
  fields.reserve(std::min<size_t>(nfields, static_cast<size_t>(end - p)));
  for (uint32_t i = 0; i < nfields; ++i) {
    if (p >= end) return Status::Corruption("spill record truncated in tag");
    ValueType type = static_cast<ValueType>(*p++);
    switch (type) {
      case ValueType::kNull:
        fields.emplace_back();
        break;
      case ValueType::kInt: {
        int64_t v;
        if (!ReadPod(&p, end, &v)) {
          return Status::Corruption("spill record truncated in int value");
        }
        fields.emplace_back(v);
        break;
      }
      case ValueType::kDouble: {
        double v;
        if (!ReadPod(&p, end, &v)) {
          return Status::Corruption("spill record truncated in double value");
        }
        fields.emplace_back(v);
        break;
      }
      case ValueType::kString: {
        uint32_t len;
        if (!ReadPod(&p, end, &len) ||
            static_cast<size_t>(end - p) < static_cast<size_t>(len)) {
          return Status::Corruption("spill record truncated in string value");
        }
        fields.emplace_back(std::string_view(p, len));
        p += len;
        break;
      }
      default:
        return Status::Corruption("spill record has unknown value tag");
    }
  }
  if (p != end) {
    return Status::Corruption("spill record has trailing bytes");
  }
  return Record(std::move(fields));
}

// --- BatchSpillWriter -------------------------------------------------------

BatchSpillWriter& BatchSpillWriter::operator=(BatchSpillWriter&& other) noexcept {
  if (this != &other) {
    if (file_) {
      std::fclose(file_);
      std::remove(path_.c_str());
    }
    file_ = other.file_;
    path_ = std::move(other.path_);
    buf_ = std::move(other.buf_);
    bytes_written_ = other.bytes_written_;
    closed_ = other.closed_;
    other.file_ = nullptr;
    other.closed_ = true;
  }
  return *this;
}

BatchSpillWriter::~BatchSpillWriter() {
  if (file_) {
    std::fclose(file_);
    // Destroyed without Close(): an aborted spill. Remove the partial file so
    // a failed run never leaks.
    std::remove(path_.c_str());
  }
}

StatusOr<BatchSpillWriter> BatchSpillWriter::Create(std::string path,
                                                    const ZoneMapSketch* sketch) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!f) {
    return Status::InvalidArgument("cannot create spill file " + path + ": " +
                                   std::strerror(errno));
  }
  BatchSpillWriter w;
  w.file_ = f;
  w.path_ = std::move(path);
  w.buf_.clear();
  AppendPod<uint64_t>(kMagic, &w.buf_);
  std::string sketch_block;
  if (sketch != nullptr) sketch->EncodeTo(&sketch_block);
  AppendPod<uint32_t>(static_cast<uint32_t>(sketch_block.size()), &w.buf_);
  w.buf_.append(sketch_block);
  if (std::fwrite(w.buf_.data(), 1, w.buf_.size(), f) != w.buf_.size()) {
    return Status::Internal("short write on spill file header");
  }
  w.bytes_written_ = static_cast<int64_t>(w.buf_.size());
  return w;
}

Status BatchSpillWriter::WriteBatch(const RecordBatch& batch) {
  if (!file_) return Status::Internal("spill writer is closed");
  buf_.clear();
  AppendPod<uint32_t>(static_cast<uint32_t>(batch.size()), &buf_);
  for (size_t i = 0; i < batch.size(); ++i) {
    AppendPod<uint32_t>(static_cast<uint32_t>(batch.record_bytes(i)), &buf_);
    size_t before = buf_.size();
    EncodeRecord(batch.record(i), &buf_);
    if (buf_.size() - before != batch.record_bytes(i)) {
      // The cached size IS the meter; encoding to a different length means
      // the cache drifted from Record::SerializedSize.
      return Status::Internal("cached record size drifted from encoding");
    }
  }
  if (std::fwrite(buf_.data(), 1, buf_.size(), file_) != buf_.size()) {
    return Status::Internal("short write on spill file " + path_);
  }
  bytes_written_ += static_cast<int64_t>(buf_.size());
  return Status::OK();
}

Status BatchSpillWriter::Close() {
  if (!file_) return Status::Internal("spill writer is closed");
  int rc = std::fclose(file_);
  file_ = nullptr;
  closed_ = true;
  if (rc != 0) {
    std::remove(path_.c_str());
    return Status::Internal("error closing spill file " + path_);
  }
  return Status::OK();
}

// --- BatchSpillReader -------------------------------------------------------

BatchSpillReader& BatchSpillReader::operator=(BatchSpillReader&& other) noexcept {
  if (this != &other) {
    if (file_) std::fclose(file_);
    file_ = other.file_;
    path_ = std::move(other.path_);
    scratch_ = std::move(other.scratch_);
    sketch_ = std::move(other.sketch_);
    header_bytes_ = other.header_bytes_;
    other.file_ = nullptr;
  }
  return *this;
}

BatchSpillReader::~BatchSpillReader() {
  if (file_) std::fclose(file_);
}

StatusOr<BatchSpillReader> BatchSpillReader::Open(std::string path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) {
    return Status::NotFound("cannot open spill file " + path + ": " +
                            std::strerror(errno));
  }
  uint64_t magic = 0;
  if (std::fread(&magic, 1, sizeof(magic), f) != sizeof(magic) ||
      magic != kMagic) {
    std::fclose(f);
    return Status::Corruption("spill file " + path + " has a bad header");
  }
  uint32_t sketch_len = 0;
  if (std::fread(&sketch_len, 1, sizeof(sketch_len), f) != sizeof(sketch_len) ||
      sketch_len > kMaxSketchBytes) {
    std::fclose(f);
    return Status::Corruption("spill file " + path + " has a bad sketch block");
  }
  BatchSpillReader r;
  r.file_ = f;
  r.path_ = std::move(path);
  r.header_bytes_ = static_cast<int64_t>(sizeof(magic) + sizeof(sketch_len)) +
                    sketch_len;
  if (sketch_len > 0) {
    r.scratch_.resize(sketch_len);
    if (std::fread(r.scratch_.data(), 1, sketch_len, f) != sketch_len) {
      return Status::Corruption("spill file " + r.path_ +
                                " truncated in sketch block");
    }
    size_t pos = 0;
    StatusOr<ZoneMapSketch> sketch =
        ZoneMapSketch::Decode(r.scratch_.data(), sketch_len, &pos);
    if (!sketch.ok()) return sketch.status();
    if (pos != sketch_len) {
      return Status::Corruption("spill file " + r.path_ +
                                " has trailing bytes in sketch block");
    }
    r.sketch_ = std::move(sketch).value();
  }
  return r;
}

StatusOr<bool> BatchSpillReader::ReadBatch(BatchPool* pool, size_t capacity,
                                           RecordBatch* out,
                                           int64_t* file_bytes) {
  *file_bytes = 0;
  if (!file_) return Status::Internal("spill reader is closed");
  uint32_t nrecords = 0;
  size_t got = std::fread(&nrecords, 1, sizeof(nrecords), file_);
  if (got == 0) {
    if (std::feof(file_)) return false;  // clean end of run
    return Status::Internal("read error on spill file " + path_);
  }
  if (got != sizeof(nrecords)) {
    return Status::Corruption("spill file " + path_ +
                              " truncated in batch header");
  }
  int64_t consumed = static_cast<int64_t>(sizeof(nrecords));
  RecordBatch batch = pool->Acquire(capacity);
  for (uint32_t i = 0; i < nrecords; ++i) {
    uint32_t size = 0;
    if (std::fread(&size, 1, sizeof(size), file_) != sizeof(size)) {
      pool->Release(std::move(batch));
      return Status::Corruption("spill file " + path_ +
                                " truncated in record header");
    }
    // Sanity-check the size prefix before allocating for it: a garbled
    // prefix must surface as Corruption, not as a multi-GiB allocation.
    constexpr uint32_t kMaxRecordBytes = 1u << 28;
    if (size > kMaxRecordBytes) {
      pool->Release(std::move(batch));
      return Status::Corruption("spill file " + path_ +
                                " has an implausible record size");
    }
    scratch_.resize(size);
    if (size > 0 && std::fread(scratch_.data(), 1, size, file_) != size) {
      pool->Release(std::move(batch));
      return Status::Corruption("spill file " + path_ +
                                " truncated in record payload");
    }
    StatusOr<Record> rec = DecodeRecord(scratch_.data(), size);
    if (!rec.ok()) {
      pool->Release(std::move(batch));
      return rec.status();
    }
    // Restores the cached size without re-walking the payload.
    batch.AppendWithSize(std::move(rec).value(), size);
    consumed += static_cast<int64_t>(sizeof(size)) + size;
  }
  *out = std::move(batch);
  *file_bytes = consumed;
  return true;
}

// --- SpillDirectory ---------------------------------------------------------

SpillDirectory& SpillDirectory::operator=(SpillDirectory&& other) noexcept {
  if (this != &other) {
    if (!path_.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(path_, ec);
    }
    path_ = std::move(other.path_);
    next_run_ = other.next_run_;
    other.path_.clear();
  }
  return *this;
}

SpillDirectory::~SpillDirectory() {
  if (!path_.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);  // best effort
  }
}

StatusOr<SpillDirectory> SpillDirectory::Create(const std::string& parent,
                                                const std::string& tag) {
  std::error_code ec;
  std::filesystem::path base =
      parent.empty() ? std::filesystem::temp_directory_path(ec)
                     : std::filesystem::path(parent);
  if (ec) {
    return Status::InvalidArgument("no system temp directory: " + ec.message());
  }
  // A unique subdirectory per SpillDirectory instance; the pid plus a
  // process-wide counter keeps concurrent processes and instances apart.
  // The optional tag only labels the directory (sanitized so a caller-
  // supplied query name cannot escape the parent) — uniqueness never
  // depends on it.
  static std::atomic<uint64_t> counter{0};
  uint64_t n = counter.fetch_add(1);
  std::string name = "blackbox-spill-" + std::to_string(::getpid()) + "-" +
                     std::to_string(n);
  if (!tag.empty()) {
    name += '-';
    for (char c : tag) {
      name += (std::isalnum(static_cast<unsigned char>(c)) || c == '-' ||
               c == '_')
                  ? c
                  : '_';
    }
  }
  std::filesystem::path dir = base / name;
  if (!std::filesystem::create_directories(dir, ec) || ec) {
    return Status::InvalidArgument("cannot create spill directory " +
                                   dir.string() + ": " +
                                   (ec ? ec.message() : "already exists"));
  }
  SpillDirectory d;
  d.path_ = dir.string();
  return d;
}

std::string SpillDirectory::NewRunPath() {
  char name[32];
  std::snprintf(name, sizeof(name), "run-%06d.spill", next_run_++);
  return (std::filesystem::path(path_) / name).string();
}

}  // namespace blackbox
