#include "wal/wal_reader.h"

#include <cstring>

#include "common/checked_math.h"
#include "storage/crc32c.h"

namespace irhint {

namespace {

uint32_t GetU32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

uint64_t GetU64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

IRHINT_UNTRUSTED Status DecodeObjectPayload(const uint8_t* payload,
                                            size_t size, Object* out) {
  if (size < 24) return Status::Corruption("wal object payload truncated");
  out->id = GetU32(payload + 0);
  const uint32_t count = GetU32(payload + 4);
  out->interval.st = GetU64(payload + 8);
  out->interval.end = GetU64(payload + 16);
  // count is attacker-controlled; the byte-count multiply must not wrap
  // before it is compared against the record's actual payload span.
  size_t elem_bytes = 0;
  if (!CheckedMul(static_cast<size_t>(count), sizeof(ElementId),
                  &elem_bytes) ||
      elem_bytes != size - 24) {
    return Status::Corruption("wal object element count mismatch");
  }
  out->elements.resize(count);
  if (count > 0) {
    std::memcpy(out->elements.data(), payload + 24, elem_bytes);
  }
  // The writer logs only objects that pass the same rule, so a CRC-valid
  // record failing it was not written by this program. Replay grows dense
  // per-element tables out to the largest id, so an unbounded id here is
  // an allocation bomb.
  const Status valid = ValidateObject(*out);
  if (!valid.ok()) return Status::Corruption("wal object " + valid.message());
  return Status::OK();
}

}  // namespace

Status DecodeWalRecord(const uint8_t* data, size_t size, size_t offset,
                       WalRecord* out, size_t* bytes_consumed) {
  if (offset + kWalRecordHeaderBytes > size) {
    return Status::Corruption("wal record header truncated");
  }
  const uint8_t* h = data + offset;
  const uint32_t stored_crc = GetU32(h + 0);
  const uint32_t payload_size = GetU32(h + 4);
  const uint64_t lsn = GetU64(h + 8);
  const uint32_t type = GetU32(h + 16);
  // payload_size is attacker-controlled: the on-disk footprint and its
  // end offset must be computed overflow-checked before trusting either.
  const size_t total = WalRecordBytesOnDisk(payload_size);
  size_t record_end = 0;
  if (total < payload_size ||
      !CheckedAdd(offset, total, &record_end) || record_end > size) {
    return Status::Corruption("wal record payload truncated");
  }
  if (Crc32c(h + 4, kWalRecordHeaderBytes - 4 + payload_size) != stored_crc) {
    return Status::Corruption("wal record checksum mismatch");
  }
  const uint8_t* payload = h + kWalRecordHeaderBytes;
  out->lsn = lsn;
  switch (static_cast<WalRecordType>(type)) {
    case WalRecordType::kInsert:
    case WalRecordType::kErase:
      out->type = static_cast<WalRecordType>(type);
      IRHINT_RETURN_NOT_OK(DecodeObjectPayload(payload, payload_size,
                                               &out->object));
      break;
    case WalRecordType::kCheckpoint: {
      out->type = WalRecordType::kCheckpoint;
      if (payload_size < 12) {
        return Status::Corruption("wal checkpoint payload truncated");
      }
      out->checkpoint_lsn = GetU64(payload + 0);
      const uint32_t name_len = GetU32(payload + 8);
      if (12 + static_cast<size_t>(name_len) != payload_size) {
        return Status::Corruption("wal checkpoint name length mismatch");
      }
      out->snapshot_file.assign(
          reinterpret_cast<const char*>(payload + 12), name_len);
      break;
    }
    case WalRecordType::kRotate:
      out->type = WalRecordType::kRotate;
      if (payload_size != 8) {
        return Status::Corruption("wal rotate payload malformed");
      }
      out->next_seq = GetU64(payload);
      break;
    default:
      return Status::Corruption("wal record has unknown type tag");
  }
  *bytes_consumed = total;
  return Status::OK();
}

StatusOr<WalSegmentContents> ReadWalSegment(WalEnv* env,
                                            const std::string& path) {
  auto bytes = env->ReadFileToString(path);
  IRHINT_RETURN_NOT_OK(bytes.status());
  const uint8_t* data = reinterpret_cast<const uint8_t*>(bytes->data());
  const size_t size = bytes->size();

  WalSegmentContents contents;
  contents.file_bytes = size;

  // Header. A damaged header is reported through the tail fields (offset
  // 0) so the caller's torn-tail policy covers "crash before the header
  // hit disk" — but a *valid* header with the wrong sequence number is a
  // misplaced file, which no crash produces.
  if (size < kWalSegmentHeaderBytes ||
      GetU64(data) != kWalMagic ||
      Crc32c(data, 24) != GetU32(data + 24)) {
    contents.clean = false;
    contents.valid_bytes = 0;
    contents.tail_status = Status::Corruption("wal segment header damaged");
    return contents;
  }
  const uint32_t version = GetU32(data + 8);
  if (version > kWalFormatVersion) {
    return Status::NotSupported("wal segment has future format version");
  }
  contents.seq = GetU64(data + 16);
  uint64_t name_seq = 0;
  const size_t slash = path.find_last_of('/');
  const std::string name =
      slash == std::string::npos ? path : path.substr(slash + 1);
  if (ParseWalSegmentFileName(name, &name_seq) && name_seq != contents.seq) {
    return Status::Corruption("wal segment " + path +
                              " header names sequence " +
                              std::to_string(contents.seq));
  }

  size_t offset = kWalSegmentHeaderBytes;
  uint64_t prev_lsn = 0;
  while (offset < size) {
    WalRecord record;
    size_t consumed = 0;
    Status st = DecodeWalRecord(data, size, offset, &record, &consumed);
    if (st.ok() && !contents.records.empty() && record.lsn <= prev_lsn) {
      st = Status::Corruption("wal record LSN not increasing");
    }
    if (!st.ok()) {
      contents.clean = false;
      contents.valid_bytes = offset;
      contents.tail_status = std::move(st);
      // Probe the rest of the file: any CRC-valid record past the failure
      // point proves this is not a torn (prefix-truncated) tail.
      for (size_t probe = offset + 8; probe < size; probe += 8) {
        WalRecord ignored;
        size_t ignored_bytes = 0;
        if (DecodeWalRecord(data, size, probe, &ignored, &ignored_bytes)
                .ok()) {
          contents.valid_record_after_tail = true;
          break;
        }
      }
      return contents;
    }
    prev_lsn = record.lsn;
    contents.ends_with_rotate = record.type == WalRecordType::kRotate;
    contents.records.push_back(std::move(record));
    offset += consumed;
  }
  contents.clean = true;
  contents.valid_bytes = size;
  return contents;
}

}  // namespace irhint
