// WAL subsystem tests: record framing round trips, torn-tail vs mid-log
// corruption classification, rotation, recovery from snapshot + replay,
// checkpointing with garbage collection, the id watermark, and the
// checkpoint snapshot section.

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/durable_index.h"
#include "core/factory.h"
#include "data/synthetic.h"
#include "storage/index_io.h"
#include "wal/recovery.h"
#include "wal/wal_env.h"
#include "wal/wal_format.h"
#include "wal/wal_reader.h"
#include "wal/wal_writer.h"

namespace irhint {
namespace {

using Ids = std::vector<ObjectId>;

// Fresh, per-test directory (parallel ctest runs cases of this binary
// concurrently; paths must not be shared).
std::string TempWalDir() {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  std::string name = std::string(info->test_suite_name()) + "_" + info->name();
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  const std::string dir = std::string(::testing::TempDir()) + "/wal_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

Object MakeObject(ObjectId id) {
  Object o;
  o.id = id;
  o.interval = Interval(10 * uint64_t{id}, 10 * uint64_t{id} + 500);
  o.elements = {id % 7, 10 + id % 5, 20 + id % 3};
  std::sort(o.elements.begin(), o.elements.end());
  o.elements.erase(std::unique(o.elements.begin(), o.elements.end()),
                   o.elements.end());
  return o;
}

std::vector<Query> MakeQueries() {
  std::vector<Query> queries;
  for (uint64_t st = 0; st < 2000; st += 130) {
    queries.push_back(Query(Interval(st, st + 400), {st % 7 == 0 ? 3u : 1u}));
    queries.push_back(Query(Interval(st, st + 900), {2, 12}));
  }
  return queries;
}

Ids Answer(const TemporalIrIndex& index, const Query& query) {
  Ids out;
  index.Query(query, &out);
  std::sort(out.begin(), out.end());
  return out;
}

void ExpectSameAnswers(const TemporalIrIndex& a, const TemporalIrIndex& b) {
  const std::vector<Query> queries = MakeQueries();
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(Answer(a, queries[i]), Answer(b, queries[i]))
        << "query " << i << " differs";
  }
}

std::unique_ptr<TemporalIrIndex> EmptyIndex(IndexKind kind) {
  std::unique_ptr<TemporalIrIndex> index = CreateIndex(kind);
  Corpus empty;
  empty.DeclareDomain(1);
  EXPECT_TRUE(empty.Finalize().ok());
  EXPECT_TRUE(index->Build(empty).ok());
  return index;
}

void FlipByteInFile(const std::string& path, long offset) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  unsigned char byte = 0;
  ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
  ASSERT_EQ(std::fread(&byte, 1, 1, f), 1u);
  byte ^= 0x20;
  ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
  ASSERT_EQ(std::fwrite(&byte, 1, 1, f), 1u);
  std::fclose(f);
}

void AppendGarbage(const std::string& path, size_t n) {
  std::FILE* f = std::fopen(path.c_str(), "ab");
  ASSERT_NE(f, nullptr);
  for (size_t i = 0; i < n; ++i) {
    const unsigned char byte = static_cast<unsigned char>(0xA5 ^ (31 * i));
    ASSERT_EQ(std::fwrite(&byte, 1, 1, f), 1u);
  }
  std::fclose(f);
}

TEST(WalFormatTest, FileNamesRoundTrip) {
  uint64_t value = 0;
  EXPECT_TRUE(ParseWalSegmentFileName(WalSegmentFileName(7), &value));
  EXPECT_EQ(value, 7u);
  EXPECT_TRUE(ParseCheckpointFileName(CheckpointFileName(123456789), &value));
  EXPECT_EQ(value, 123456789u);
  EXPECT_FALSE(ParseWalSegmentFileName("ckpt-00000000000000000001.snap",
                                       &value));
  EXPECT_FALSE(ParseCheckpointFileName("wal-00000000000000000001.log",
                                       &value));
  EXPECT_FALSE(ParseWalSegmentFileName("wal-1.log", &value));
  EXPECT_FALSE(ParseWalSegmentFileName("", &value));
}

TEST(WalWriterReaderTest, RecordsRoundTrip) {
  const std::string dir = TempWalDir();
  WalEnv* env = DefaultWalEnv();
  ASSERT_TRUE(env->CreateDirIfMissing(dir).ok());
  WalWriterOptions options;
  options.durability = WalDurability::kAlways;
  auto writer = WalWriter::Open(env, dir, 1, 1, options);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();

  for (ObjectId id = 0; id < 40; ++id) {
    auto lsn = (*writer)->AppendInsert(MakeObject(id));
    ASSERT_TRUE(lsn.ok());
    EXPECT_EQ(lsn.value(), uint64_t{id} + 1);
  }
  auto erase_lsn = (*writer)->AppendErase(MakeObject(3));
  ASSERT_TRUE(erase_lsn.ok());
  EXPECT_EQ(erase_lsn.value(), 41u);
  EXPECT_EQ((*writer)->last_synced_lsn(), 41u);  // kAlways syncs every record
  writer->reset();

  auto contents =
      ReadWalSegment(env, WalPathJoin(dir, WalSegmentFileName(1)));
  ASSERT_TRUE(contents.ok()) << contents.status().ToString();
  EXPECT_TRUE(contents->clean);
  EXPECT_EQ(contents->seq, 1u);
  ASSERT_EQ(contents->records.size(), 41u);
  for (size_t i = 0; i < 40; ++i) {
    const WalRecord& record = contents->records[i];
    EXPECT_EQ(record.lsn, i + 1);
    EXPECT_EQ(record.type, WalRecordType::kInsert);
    const Object want = MakeObject(static_cast<ObjectId>(i));
    EXPECT_EQ(record.object.id, want.id);
    EXPECT_EQ(record.object.interval, want.interval);
    EXPECT_EQ(record.object.elements, want.elements);
  }
  EXPECT_EQ(contents->records.back().type, WalRecordType::kErase);
  EXPECT_EQ(contents->records.back().object.id, 3u);
  std::filesystem::remove_all(dir);
}

TEST(WalWriterReaderTest, RotateSealsSegmentAndContinues) {
  const std::string dir = TempWalDir();
  WalEnv* env = DefaultWalEnv();
  ASSERT_TRUE(env->CreateDirIfMissing(dir).ok());
  auto writer = WalWriter::Open(env, dir, 1, 1, {});
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->AppendInsert(MakeObject(0)).ok());
  ASSERT_TRUE((*writer)->Rotate().ok());
  EXPECT_EQ((*writer)->segment_seq(), 2u);
  ASSERT_TRUE((*writer)->AppendInsert(MakeObject(1)).ok());
  ASSERT_TRUE((*writer)->Sync().ok());
  writer->reset();

  auto first = ReadWalSegment(env, WalPathJoin(dir, WalSegmentFileName(1)));
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(first->clean);
  EXPECT_TRUE(first->ends_with_rotate);
  ASSERT_EQ(first->records.size(), 2u);
  EXPECT_EQ(first->records[1].type, WalRecordType::kRotate);
  EXPECT_EQ(first->records[1].next_seq, 2u);

  auto second = ReadWalSegment(env, WalPathJoin(dir, WalSegmentFileName(2)));
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->clean);
  ASSERT_EQ(second->records.size(), 1u);
  EXPECT_EQ(second->records[0].lsn, 3u);  // LSNs continue across segments
  std::filesystem::remove_all(dir);
}

TEST(WalWriterReaderTest, TornTailIsNotMidLogCorruption) {
  const std::string dir = TempWalDir();
  WalEnv* env = DefaultWalEnv();
  ASSERT_TRUE(env->CreateDirIfMissing(dir).ok());
  auto writer = WalWriter::Open(env, dir, 1, 1, {});
  ASSERT_TRUE(writer.ok());
  for (ObjectId id = 0; id < 10; ++id) {
    ASSERT_TRUE((*writer)->AppendInsert(MakeObject(id)).ok());
  }
  ASSERT_TRUE((*writer)->Sync().ok());
  writer->reset();

  const std::string path = WalPathJoin(dir, WalSegmentFileName(1));
  auto full = ReadWalSegment(env, path);
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(full->clean);

  // Cut the file mid-way through the last record: a classic torn write.
  ASSERT_TRUE(env->TruncateFile(path, full->file_bytes - 5).ok());
  auto torn = ReadWalSegment(env, path);
  ASSERT_TRUE(torn.ok());
  EXPECT_FALSE(torn->clean);
  EXPECT_FALSE(torn->valid_record_after_tail);
  EXPECT_EQ(torn->records.size(), 9u);
  EXPECT_LT(torn->valid_bytes, torn->file_bytes);
  std::filesystem::remove_all(dir);
}

TEST(WalWriterReaderTest, BitFlipBeforeValidRecordsIsReported) {
  const std::string dir = TempWalDir();
  WalEnv* env = DefaultWalEnv();
  ASSERT_TRUE(env->CreateDirIfMissing(dir).ok());
  auto writer = WalWriter::Open(env, dir, 1, 1, {});
  ASSERT_TRUE(writer.ok());
  for (ObjectId id = 0; id < 10; ++id) {
    ASSERT_TRUE((*writer)->AppendInsert(MakeObject(id)).ok());
  }
  ASSERT_TRUE((*writer)->Sync().ok());
  writer->reset();

  // Damage the second record; the reader keeps decoding past it and
  // reports the surviving records as a diagnostic (recovery still treats a
  // live segment's first failure as end-of-log).
  const std::string path = WalPathJoin(dir, WalSegmentFileName(1));
  const size_t second_record =
      kWalSegmentHeaderBytes +
      WalRecordBytesOnDisk(WalObjectPayloadBytes(MakeObject(0)));
  FlipByteInFile(path,
                 static_cast<long>(second_record + kWalRecordHeaderBytes + 2));
  auto contents = ReadWalSegment(env, path);
  ASSERT_TRUE(contents.ok());
  EXPECT_FALSE(contents->clean);
  EXPECT_TRUE(contents->valid_record_after_tail);
  EXPECT_EQ(contents->records.size(), 1u);
  std::filesystem::remove_all(dir);
}

TEST(WalWriterReaderTest, MisnamedSegmentFileIsRejected) {
  const std::string dir = TempWalDir();
  WalEnv* env = DefaultWalEnv();
  ASSERT_TRUE(env->CreateDirIfMissing(dir).ok());
  auto writer = WalWriter::Open(env, dir, 1, 1, {});
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->AppendInsert(MakeObject(0)).ok());
  ASSERT_TRUE((*writer)->Sync().ok());
  writer->reset();

  const std::string renamed = WalPathJoin(dir, WalSegmentFileName(9));
  ASSERT_TRUE(
      env->RenameFile(WalPathJoin(dir, WalSegmentFileName(1)), renamed).ok());
  auto contents = ReadWalSegment(env, renamed);
  EXPECT_FALSE(contents.ok());
  EXPECT_TRUE(contents.status().IsCorruption());
  std::filesystem::remove_all(dir);
}

TEST(RecoveryTest, FreshDirectoryYieldsEmptyIndex) {
  const std::string dir = TempWalDir();  // never created
  auto result = RecoveryManager(DefaultWalEnv(), dir).Recover();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->last_lsn, 0u);
  EXPECT_EQ(result->next_segment_seq, 1u);
  EXPECT_EQ(result->next_object_id, 0u);
  Ids out;
  result->index->Query(Query(Interval(0, 1000), {1}), &out);
  EXPECT_TRUE(out.empty());
}

TEST(RecoveryTest, ReplaysLogAgainstReference) {
  const std::string dir = TempWalDir();
  WalEnv* env = DefaultWalEnv();
  ASSERT_TRUE(env->CreateDirIfMissing(dir).ok());
  auto writer = WalWriter::Open(env, dir, 1, 1, {});
  ASSERT_TRUE(writer.ok());
  std::unique_ptr<TemporalIrIndex> reference =
      EmptyIndex(IndexKind::kNaiveScan);
  for (ObjectId id = 0; id < 120; ++id) {
    ASSERT_TRUE((*writer)->AppendInsert(MakeObject(id)).ok());
    ASSERT_TRUE(reference->Insert(MakeObject(id)).ok());
    if (id % 3 == 0) {
      ASSERT_TRUE((*writer)->AppendErase(MakeObject(id)).ok());
      ASSERT_TRUE(reference->Erase(MakeObject(id)).ok());
    }
  }
  ASSERT_TRUE((*writer)->Sync().ok());
  writer->reset();

  auto result = RecoveryManager(env, dir).Recover();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->records_replayed, 160u);
  EXPECT_EQ(result->records_skipped, 0u);
  EXPECT_EQ(result->next_object_id, 120u);
  ExpectSameAnswers(*result->index, *reference);
  std::filesystem::remove_all(dir);
}

TEST(RecoveryTest, TruncatesTornTailAndRecoversSyncedPrefix) {
  const std::string dir = TempWalDir();
  WalEnv* env = DefaultWalEnv();
  ASSERT_TRUE(env->CreateDirIfMissing(dir).ok());
  auto writer = WalWriter::Open(env, dir, 1, 1, {});
  ASSERT_TRUE(writer.ok());
  for (ObjectId id = 0; id < 30; ++id) {
    ASSERT_TRUE((*writer)->AppendInsert(MakeObject(id)).ok());
  }
  ASSERT_TRUE((*writer)->Sync().ok());
  writer->reset();

  const std::string path = WalPathJoin(dir, WalSegmentFileName(1));
  AppendGarbage(path, 13);  // a torn write past the synced prefix

  auto result = RecoveryManager(env, dir).Recover();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->last_lsn, 30u);
  EXPECT_EQ(result->torn_bytes_dropped, 13u);

  // The tail was physically truncated: a second recovery sees a clean log.
  auto again = RecoveryManager(env, dir).Recover();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->torn_bytes_dropped, 0u);
  EXPECT_EQ(again->last_lsn, 30u);
  std::filesystem::remove_all(dir);
}

TEST(RecoveryTest, SealedSegmentCorruptionFailsWithCleanStatus) {
  const std::string dir = TempWalDir();
  WalEnv* env = DefaultWalEnv();
  ASSERT_TRUE(env->CreateDirIfMissing(dir).ok());
  auto writer = WalWriter::Open(env, dir, 1, 1, {});
  ASSERT_TRUE(writer.ok());
  for (ObjectId id = 0; id < 30; ++id) {
    ASSERT_TRUE((*writer)->AppendInsert(MakeObject(id)).ok());
  }
  ASSERT_TRUE((*writer)->Rotate().ok());  // seal segment 1
  ASSERT_TRUE((*writer)->AppendInsert(MakeObject(30)).ok());
  ASSERT_TRUE((*writer)->Sync().ok());
  writer->reset();

  FlipByteInFile(WalPathJoin(dir, WalSegmentFileName(1)),
                 kWalSegmentHeaderBytes + kWalRecordHeaderBytes + 1);
  auto result = RecoveryManager(env, dir).Recover();
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCorruption());
  std::filesystem::remove_all(dir);
}

TEST(RecoveryTest, LiveSegmentDamageEndsTheLogThere) {
  const std::string dir = TempWalDir();
  WalEnv* env = DefaultWalEnv();
  ASSERT_TRUE(env->CreateDirIfMissing(dir).ok());
  auto writer = WalWriter::Open(env, dir, 1, 1, {});
  ASSERT_TRUE(writer.ok());
  for (ObjectId id = 0; id < 30; ++id) {
    ASSERT_TRUE((*writer)->AppendInsert(MakeObject(id)).ok());
  }
  ASSERT_TRUE((*writer)->Sync().ok());
  writer->reset();

  // A flipped bit in the live segment's second record: out-of-order
  // writeback makes this a reachable crash state even with valid records
  // after it, so recovery truncates at the damage instead of failing.
  const size_t second_record =
      kWalSegmentHeaderBytes +
      WalRecordBytesOnDisk(WalObjectPayloadBytes(MakeObject(0)));
  FlipByteInFile(WalPathJoin(dir, WalSegmentFileName(1)),
                 static_cast<long>(second_record + kWalRecordHeaderBytes + 1));
  auto result = RecoveryManager(env, dir).Recover();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->last_lsn, 1u);
  EXPECT_GT(result->torn_bytes_dropped, 0u);

  // The truncation is durable: a second recovery sees a clean short log.
  auto again = RecoveryManager(env, dir).Recover();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->last_lsn, 1u);
  EXPECT_EQ(again->torn_bytes_dropped, 0u);
  std::filesystem::remove_all(dir);
}

TEST(RecoveryTest, TornNonFinalSegmentIsCorruption) {
  const std::string dir = TempWalDir();
  WalEnv* env = DefaultWalEnv();
  ASSERT_TRUE(env->CreateDirIfMissing(dir).ok());
  auto writer = WalWriter::Open(env, dir, 1, 1, {});
  ASSERT_TRUE(writer.ok());
  for (ObjectId id = 0; id < 10; ++id) {
    ASSERT_TRUE((*writer)->AppendInsert(MakeObject(id)).ok());
  }
  ASSERT_TRUE((*writer)->Rotate().ok());
  ASSERT_TRUE((*writer)->AppendInsert(MakeObject(10)).ok());
  ASSERT_TRUE((*writer)->Sync().ok());
  writer->reset();

  const std::string first = WalPathJoin(dir, WalSegmentFileName(1));
  auto size = env->FileSize(first);
  ASSERT_TRUE(size.ok());
  ASSERT_TRUE(env->TruncateFile(first, *size - 3).ok());
  auto result = RecoveryManager(env, dir).Recover();
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCorruption());
  std::filesystem::remove_all(dir);
}

TEST(RecoveryTest, CorruptSnapshotFallsBackToFullReplay) {
  const std::string dir = TempWalDir();
  WalEnv* env = DefaultWalEnv();
  ASSERT_TRUE(env->CreateDirIfMissing(dir).ok());
  auto writer = WalWriter::Open(env, dir, 1, 1, {});
  ASSERT_TRUE(writer.ok());
  std::unique_ptr<TemporalIrIndex> reference =
      EmptyIndex(IndexKind::kNaiveScan);
  std::unique_ptr<TemporalIrIndex> mid = EmptyIndex(IndexKind::kNaiveScan);
  for (ObjectId id = 0; id < 60; ++id) {
    ASSERT_TRUE((*writer)->AppendInsert(MakeObject(id)).ok());
    ASSERT_TRUE(reference->Insert(MakeObject(id)).ok());
    if (id < 40) {
      ASSERT_TRUE(mid->Insert(MakeObject(id)).ok());
    }
  }
  ASSERT_TRUE((*writer)->Sync().ok());
  writer->reset();

  // A checkpoint covering LSN 40 whose snapshot has since bit-rotted. The
  // log still holds every record, so recovery must fall back to replaying
  // it all.
  const std::string snapshot = WalPathJoin(dir, CheckpointFileName(40));
  ASSERT_TRUE(SaveIndexCheckpoint(*mid, snapshot, 40, 40).ok());
  FlipByteInFile(snapshot, 100);

  auto result = RecoveryManager(env, dir).Recover();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->snapshots_rejected, 1u);
  EXPECT_TRUE(result->snapshot_file.empty());
  EXPECT_EQ(result->records_replayed, 60u);
  ExpectSameAnswers(*result->index, *reference);
  std::filesystem::remove_all(dir);
}

TEST(RecoveryTest, IntactSnapshotSkipsCoveredRecords) {
  const std::string dir = TempWalDir();
  WalEnv* env = DefaultWalEnv();
  ASSERT_TRUE(env->CreateDirIfMissing(dir).ok());
  auto writer = WalWriter::Open(env, dir, 1, 1, {});
  ASSERT_TRUE(writer.ok());
  std::unique_ptr<TemporalIrIndex> reference =
      EmptyIndex(IndexKind::kNaiveScan);
  std::unique_ptr<TemporalIrIndex> mid = EmptyIndex(IndexKind::kNaiveScan);
  for (ObjectId id = 0; id < 60; ++id) {
    ASSERT_TRUE((*writer)->AppendInsert(MakeObject(id)).ok());
    ASSERT_TRUE(reference->Insert(MakeObject(id)).ok());
    if (id < 40) {
      ASSERT_TRUE(mid->Insert(MakeObject(id)).ok());
    }
  }
  ASSERT_TRUE((*writer)->Sync().ok());
  writer->reset();
  ASSERT_TRUE(SaveIndexCheckpoint(
      *mid, WalPathJoin(dir, CheckpointFileName(40)), 40, 40).ok());

  auto result = RecoveryManager(env, dir).Recover();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->snapshot_lsn, 40u);
  EXPECT_EQ(result->kind, IndexKind::kNaiveScan);  // snapshot kind wins
  EXPECT_EQ(result->records_replayed, 20u);
  EXPECT_EQ(result->next_object_id, 60u);
  ExpectSameAnswers(*result->index, *reference);
  std::filesystem::remove_all(dir);
}

TEST(RecoveryTest, MisnamedCheckpointIsRejected) {
  const std::string dir = TempWalDir();
  WalEnv* env = DefaultWalEnv();
  ASSERT_TRUE(env->CreateDirIfMissing(dir).ok());
  std::unique_ptr<TemporalIrIndex> mid = EmptyIndex(IndexKind::kNaiveScan);
  ASSERT_TRUE(mid->Insert(MakeObject(0)).ok());
  // Snapshot says it covers LSN 1 but sits under a name claiming LSN 25.
  ASSERT_TRUE(SaveIndexCheckpoint(
      *mid, WalPathJoin(dir, CheckpointFileName(25)), 1, 1).ok());
  auto result = RecoveryManager(env, dir).Recover();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->snapshots_rejected, 1u);
  EXPECT_TRUE(result->snapshot_file.empty());
  std::filesystem::remove_all(dir);
}

TEST(RecoveryTest, LsnGapAfterLostRecordsIsCorruption) {
  const std::string dir = TempWalDir();
  WalEnv* env = DefaultWalEnv();
  ASSERT_TRUE(env->CreateDirIfMissing(dir).ok());
  // Records 1..99 were garbage-collected against a checkpoint that no
  // longer loads (simulated here by its absence); the survivors start at
  // LSN 100. Silently dropping 99 acknowledged records would be data loss,
  // so recovery must fail cleanly.
  auto writer = WalWriter::Open(env, dir, 2, 100, {});
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->AppendInsert(MakeObject(99)).ok());
  ASSERT_TRUE((*writer)->Sync().ok());
  writer->reset();
  auto result = RecoveryManager(env, dir).Recover();
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCorruption());
  std::filesystem::remove_all(dir);
}

TEST(CheckpointSnapshotTest, WalStateSectionRoundTrips) {
  const std::string dir = TempWalDir();
  ASSERT_TRUE(DefaultWalEnv()->CreateDirIfMissing(dir).ok());
  std::unique_ptr<TemporalIrIndex> index = EmptyIndex(IndexKind::kIrHintPerf);
  ASSERT_TRUE(index->Insert(MakeObject(0)).ok());
  const std::string path = WalPathJoin(dir, CheckpointFileName(17));
  ASSERT_TRUE(SaveIndexCheckpoint(*index, path, 17, 1).ok());

  auto info = LoadIndexCheckpoint(path);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->wal_lsn, 17u);
  EXPECT_EQ(info->next_object_id, 1u);
  EXPECT_EQ(info->loaded.kind, IndexKind::kIrHintPerf);

  // A checkpoint is still a regular snapshot (readers ignore the extra
  // section) ...
  EXPECT_TRUE(LoadIndexSnapshot(path).ok());

  // ... but a plain snapshot is not a checkpoint.
  const std::string plain = WalPathJoin(dir, "plain.irh");
  ASSERT_TRUE(SaveIndex(*index, plain).ok());
  auto not_ckpt = LoadIndexCheckpoint(plain);
  EXPECT_FALSE(not_ckpt.ok());
  EXPECT_TRUE(not_ckpt.status().IsInvalidArgument());
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// DurableIndex: the full stack.
// ---------------------------------------------------------------------------

TEST(DurableIndexTest, ReopenRestoresExactState) {
  const std::string dir = TempWalDir();
  std::unique_ptr<TemporalIrIndex> reference =
      EmptyIndex(IndexKind::kNaiveScan);
  {
    auto index = DurableIndex::Open(dir);
    ASSERT_TRUE(index.ok()) << index.status().ToString();
    for (ObjectId id = 0; id < 150; ++id) {
      ASSERT_TRUE((*index)->Insert(MakeObject(id)).ok());
      ASSERT_TRUE(reference->Insert(MakeObject(id)).ok());
      if (id % 4 == 1) {
        ASSERT_TRUE((*index)->Erase(MakeObject(id)).ok());
        ASSERT_TRUE(reference->Erase(MakeObject(id)).ok());
      }
    }
    ExpectSameAnswers(**index, *reference);
  }
  auto reopened = DurableIndex::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->recovery_info().last_lsn, 150u + 38u);
  EXPECT_EQ((*reopened)->next_object_id(), 150u);
  ExpectSameAnswers(**reopened, *reference);
  std::filesystem::remove_all(dir);
}

TEST(DurableIndexTest, WatermarkRejectsDuplicateAndUnknownIds) {
  const std::string dir = TempWalDir();
  auto index = DurableIndex::Open(dir);
  ASSERT_TRUE(index.ok());
  ASSERT_TRUE((*index)->Insert(MakeObject(5)).ok());
  EXPECT_TRUE((*index)->Insert(MakeObject(5)).IsAlreadyExists());
  EXPECT_TRUE((*index)->Insert(MakeObject(2)).IsAlreadyExists());
  EXPECT_TRUE((*index)->Erase(MakeObject(9)).IsNotFound());
  Object inverted = MakeObject(6);
  inverted.interval = Interval(10, 9);
  EXPECT_TRUE((*index)->Insert(inverted).IsInvalidArgument());
  EXPECT_TRUE((*index)->Insert(MakeObject(6)).ok());

  // The watermark survives recovery.
  index->reset();
  auto reopened = DurableIndex::Open(dir);
  ASSERT_TRUE(reopened.ok());
  EXPECT_TRUE((*reopened)->Insert(MakeObject(6)).IsAlreadyExists());
  EXPECT_TRUE((*reopened)->Insert(MakeObject(7)).ok());
  std::filesystem::remove_all(dir);
}

// The writer applies the reader's validity rule before it logs. An object
// with an element id past kElementIdLimit used to be acknowledged and
// logged; on reopen the reader rejected that CRC-valid record, took it for
// a torn tail and truncated the segment there, so the legal, synced inserts
// after it were lost.
TEST(DurableIndexTest, RefusedObjectDoesNotCostLaterWrites) {
  const std::string dir = TempWalDir();
  DurableIndexOptions options;
  options.durability = WalDurability::kAlways;
  std::unique_ptr<TemporalIrIndex> reference =
      EmptyIndex(IndexKind::kNaiveScan);
  {
    auto index = DurableIndex::Open(dir, options);
    ASSERT_TRUE(index.ok()) << index.status().ToString();
    const Object hostile(0, Interval(0, 10), {300000000});
    EXPECT_TRUE((*index)->Insert(hostile).IsInvalidArgument());
    EXPECT_EQ((*index)->next_object_id(), 0u);  // the refused id is not burned
    for (ObjectId id = 0; id < 3; ++id) {
      ASSERT_TRUE((*index)->Insert(MakeObject(id)).ok());
      ASSERT_TRUE(reference->Insert(MakeObject(id)).ok());
    }
    EXPECT_TRUE((*index)->Erase(hostile).IsInvalidArgument());
  }
  auto reopened = DurableIndex::Open(dir, options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->recovery_info().torn_bytes_dropped, 0u);
  EXPECT_EQ((*reopened)->recovery_info().records_replayed, 3u);
  EXPECT_EQ((*reopened)->next_object_id(), 3u);
  for (ObjectId id = 0; id < 3; ++id) {
    const Object object = MakeObject(id);
    const Ids got =
        Answer(**reopened, Query(object.interval, {object.elements[0]}));
    EXPECT_TRUE(std::binary_search(got.begin(), got.end(), id))
        << "acknowledged object " << id << " lost in recovery";
  }
  ExpectSameAnswers(**reopened, *reference);
  std::filesystem::remove_all(dir);
}

TEST(DurableIndexTest, InlineCheckpointRotatesAndCollectsGarbage) {
  const std::string dir = TempWalDir();
  WalEnv* env = DefaultWalEnv();
  std::unique_ptr<TemporalIrIndex> reference =
      EmptyIndex(IndexKind::kNaiveScan);
  DurableIndexOptions options;
  options.checkpoint_bytes = 4096;  // checkpoint roughly every ~60 records
  options.background_checkpoint = false;
  {
    auto index = DurableIndex::Open(dir, options);
    ASSERT_TRUE(index.ok());
    for (ObjectId id = 0; id < 400; ++id) {
      ASSERT_TRUE((*index)->Insert(MakeObject(id)).ok());
      ASSERT_TRUE(reference->Insert(MakeObject(id)).ok());
    }
    EXPECT_GT((*index)->wal_segment_seq(), 2u);  // rotations happened
  }
  // GC keeps exactly one checkpoint and only segments at/after the live
  // one.
  auto checkpoints = ListCheckpointLsns(env, dir);
  ASSERT_TRUE(checkpoints.ok());
  EXPECT_EQ(checkpoints->size(), 1u);
  auto segments = ListWalSegments(env, dir);
  ASSERT_TRUE(segments.ok());
  EXPECT_LE(segments->size(), 2u);

  auto reopened = DurableIndex::Open(dir, options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->recovery_info().snapshot_lsn,
            checkpoints->front());
  ExpectSameAnswers(**reopened, *reference);
  std::filesystem::remove_all(dir);
}

TEST(DurableIndexTest, BackgroundCheckpointCompletes) {
  const std::string dir = TempWalDir();
  DurableIndexOptions options;
  options.checkpoint_bytes = 4096;
  options.background_checkpoint = true;
  std::unique_ptr<TemporalIrIndex> reference =
      EmptyIndex(IndexKind::kNaiveScan);
  {
    auto index = DurableIndex::Open(dir, options);
    ASSERT_TRUE(index.ok());
    for (ObjectId id = 0; id < 400; ++id) {
      ASSERT_TRUE((*index)->Insert(MakeObject(id)).ok());
      ASSERT_TRUE(reference->Insert(MakeObject(id)).ok());
    }
    ASSERT_TRUE((*index)->WaitForCheckpoint().ok());
    EXPECT_GT((*index)->wal_segment_seq(), 1u);
    ExpectSameAnswers(**index, *reference);
  }
  auto reopened = DurableIndex::Open(dir, options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_GT((*reopened)->recovery_info().snapshot_lsn, 0u);
  ExpectSameAnswers(**reopened, *reference);
  std::filesystem::remove_all(dir);
}

TEST(DurableIndexTest, BuildBulkLoadsThroughTheLog) {
  const std::string dir = TempWalDir();
  SyntheticParams params;
  params.cardinality = 300;
  params.domain = 20000;
  params.sigma = 2000;
  params.dictionary_size = 50;
  params.description_size = 4;
  params.seed = 5;
  const Corpus corpus = GenerateSynthetic(params);

  std::unique_ptr<TemporalIrIndex> reference =
      CreateIndex(IndexKind::kNaiveScan);
  ASSERT_TRUE(reference->Build(corpus).ok());
  {
    auto index = DurableIndex::Open(dir);
    ASSERT_TRUE(index.ok());
    ASSERT_TRUE((*index)->Build(corpus).ok());
    // Build on a non-fresh directory is rejected.
    EXPECT_TRUE((*index)->Build(corpus).IsInvalidArgument());
  }
  auto reopened = DurableIndex::Open(dir);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->recovery_info().last_lsn, corpus.size());
  ExpectSameAnswers(**reopened, *reference);
  std::filesystem::remove_all(dir);
}

TEST(DurableIndexTest, AllKindsSurviveReopen) {
  const IndexKind kinds[] = {
      IndexKind::kNaiveScan,           IndexKind::kTif,
      IndexKind::kTifSlicing,          IndexKind::kTifSharding,
      IndexKind::kTifHintBinarySearch, IndexKind::kTifHintMergeSort,
      IndexKind::kTifHintSlicing,      IndexKind::kIrHintPerf,
      IndexKind::kIrHintSize,
  };
  for (const IndexKind kind : kinds) {
    const std::string dir =
        TempWalDir() + "_" + std::to_string(static_cast<int>(kind));
    std::filesystem::remove_all(dir);
    DurableIndexOptions options;
    options.kind = kind;
    options.checkpoint_bytes = 2048;
    options.background_checkpoint = false;
    std::unique_ptr<TemporalIrIndex> reference =
        EmptyIndex(IndexKind::kNaiveScan);
    {
      auto index = DurableIndex::Open(dir, options);
      ASSERT_TRUE(index.ok()) << index.status().ToString();
      for (ObjectId id = 0; id < 80; ++id) {
        ASSERT_TRUE((*index)->Insert(MakeObject(id)).ok());
        ASSERT_TRUE(reference->Insert(MakeObject(id)).ok());
        if (id % 5 == 2) {
          ASSERT_TRUE((*index)->Erase(MakeObject(id)).ok());
          ASSERT_TRUE(reference->Erase(MakeObject(id)).ok());
        }
      }
    }
    auto reopened = DurableIndex::Open(dir, options);
    ASSERT_TRUE(reopened.ok())
        << IndexKindName(kind) << ": " << reopened.status().ToString();
    EXPECT_EQ((*reopened)->Kind(), kind);
    ExpectSameAnswers(**reopened, *reference);
    std::filesystem::remove_all(dir);
  }
}

}  // namespace
}  // namespace irhint
