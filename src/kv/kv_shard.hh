/**
 * @file
 * Per-node key-value shard: a log-structured value store over the
 * node's flash file system.
 *
 * Values are appended to the shard's log files in fs::LogFs (which
 * stripes pages across the card's buses and garbage-collects
 * blocks); the shard keeps each key's state in host memory, exactly
 * as the paper's RFS keeps file metadata in memory (section 4).
 *
 * One record per key (KeyRecord) holds all of that state: the
 * current log range, version and stamp; whether the key is live, a
 * tombstone or corrupt; how many of its appends are in flight; the
 * rollback snapshot; and the memtable value. A put, its completion,
 * a get and a repair decision each cost one record lookup. A second
 * index orders the same records by mix64(key) for the anti-entropy
 * range queries; it changes only when a record is created or
 * erased.
 *
 * Write-back memtable: while a key's newest append is in flight its
 * record keeps the value, so reads are always read-your-writes
 * without waiting for NAND program latency -- the same role as the
 * paper's host-side page buffers.
 *
 * Failure semantics: the log range a record serves from is always
 * durable or memtable-backed. If an append fails, the shard rolls
 * the key back to the record's snapshot of its last durable state
 * (a value, a tombstone, or absence), drops the memtable value, and
 * acks the put KvStatus::Error. A failed append is therefore never
 * later served as Ok with bytes that did not reach flash. A get
 * issued during the doomed window returns the in-flight value
 * (ordinary read-your-writes of a write that subsequently fails).
 *
 * Hot-key reads: every get result carries the entry's shard-global
 * version, so requesters can cache (value, version) pairs and
 * revalidate with getIfNewer() -- a version match costs one O(1)
 * record probe, no flash read, no value bytes. Duplicate in-flight
 * gets on the same key coalesce onto one LogFs read.
 *
 * Anti-entropy support: shard versions are local counters and not
 * comparable across replicas, so every write additionally carries a
 * router-issued cluster-wide *stamp*. Records keep (stamp,
 * live/tombstone, corrupt) for live keys and retained tombstones,
 * and the hash-ordered index answers cheap per-range digests
 * (rangeDigest) and enumerations (rangeEntries) over them. The
 * repair sweep compares digests between replicas and pushes the
 * newer-stamped side across with repairPut()/repairDel(), which
 * apply only when their stamp is strictly newer than everything the
 * shard knows for the key, making repair idempotent and
 * race-tolerant.
 *
 * This is the storage half of the figure 17 scenario: every value
 * lives in flash, none are assumed cached in DRAM, and a get costs
 * at most one (queued) flash page read.
 */

#ifndef BLUEDBM_KV_KV_SHARD_HH
#define BLUEDBM_KV_KV_SHARD_HH

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "fs/log_fs.hh"
#include "kv/kv_types.hh"
#include "sim/simulator.hh"

namespace bluedbm {
namespace kv {

/**
 * One node's slice of the key space.
 */
class KvShard
{
  public:
    /**
     * Delivers a get result: the value (empty unless status is Ok),
     * the status, and the entry's shard-global version (0 on a
     * miss). A conditional get whose version matched delivers an
     * empty value with the unchanged version ("not modified").
     */
    using GetDone = std::function<void(flash::PageBuffer, KvStatus,
                                       std::uint64_t version)>;
    /** Acknowledges a put or delete. */
    using AckDone = std::function<void(KvStatus)>;

    /**
     * @param sim      simulation kernel
     * @param fs       the node's log-structured file system
     * @param log_name shard log name; the shard keeps logStripes
     *                 log files "name.0" .. (all must be fresh) and
     *                 hashes keys across them
     */
    KvShard(sim::Simulator &sim, fs::LogFs &fs,
            const std::string &log_name);

    /**
     * Safe to destroy with appends or reads still in flight: the
     * file system (whose lifetime exceeds the shard's) holds
     * continuations that capture this shard, and they check a
     * shared liveness flag before touching it. Outstanding
     * completions are simply dropped -- their callers died with
     * the shard's owner.
     */
    ~KvShard();

    /**
     * Store @p value under @p key. The index and memtable are
     * updated immediately (reads see the new version at once); the
     * ack fires when the log append is durable on flash, or with
     * KvStatus::Error after rolling the key back to its last
     * durable version when the append fails.
     *
     * @p stamp is the router's cluster-wide write stamp, recorded
     * for anti-entropy digests (see file comment). The stampless
     * overload draws from a shard-local counter -- fine for
     * single-shard use, never for replicated writes.
     *
     * @p pri is the flash traffic class of the log append: serving
     * puts are flash::Priority::Read (a client waits on the ack);
     * anti-entropy repair pushes pass Background so maintenance
     * programs are accounted as such at the NAND.
     */
    void put(Key key, flash::PageBuffer value, std::uint64_t stamp,
             AckDone done,
             flash::Priority pri = flash::Priority::Read,
             std::uint64_t trace = 0);
    void
    put(Key key, flash::PageBuffer value, AckDone done)
    {
        put(key, std::move(value), ++fallbackStamp_,
            std::move(done));
    }

    /**
     * Fetch the live version of @p key: from the memtable when the
     * append is still in flight, else one flash read of the log
     * (shared with any identical get already in flight).
     *
     * @p pri is the flash traffic class of the log read: serving
     * gets ride Priority::Read; maintenance readers (anti-entropy
     * source reads, replica rebuild) pass Background so recovery
     * never suspends serving programs. A Background get that
     * coalesces onto an in-flight serving read simply shares it.
     *
     * @p trace (on get/getIfNewer/put; sim::Tracer handle, 0 =
     * untraced) is threaded into the file system so the fs.read /
     * fs.append span (and the flash spans inside it) nest under the
     * caller's span; served-from-memory outcomes leave a mark
     * instead (shard.memtable / shard.validated / shard.coalesced).
     */
    void get(Key key, GetDone done,
             flash::Priority pri = flash::Priority::Read,
             std::uint64_t trace = 0);

    /**
     * Conditional fetch: like get(), but when the live entry's
     * version equals @p cached_version (and it is non-zero) the
     * shard skips the flash read entirely and delivers an empty
     * value with the unchanged version -- the requester's cached
     * copy is current. 0 means unconditional.
     */
    void getIfNewer(Key key, std::uint64_t cached_version,
                    GetDone done,
                    flash::Priority pri = flash::Priority::Read,
                    std::uint64_t trace = 0);

    /**
     * Drop @p key. Index-only (metadata persistence is out of scope
     * for the simulation, as in LogFs); acks NotFound when absent.
     * Always records a tombstone at @p stamp so replicas of a
     * partially-failed delete converge under repair.
     */
    void del(Key key, std::uint64_t stamp, AckDone done);
    void
    del(Key key, AckDone done)
    {
        del(key, ++fallbackStamp_, std::move(done));
    }

    /**
     * @name Anti-entropy (KvRouter::repairSweep)
     */
    ///@{

    /** One key's repair-relevant state. */
    struct RangeEntry
    {
        Key key = 0;
        std::uint64_t stamp = 0;
        bool live = false; //!< false = tombstone
        /** The local durable copy is unreadable (uncorrectable
         * flash page); an equal-stamp replica copy must win. */
        bool corrupt = false;
    };

    /**
     * Order-independent digest of (key, stamp, liveness) for every
     * key with mix64(key) in [lo, hi] (inclusive; empty when
     * lo > hi). Replicas holding identical content for the range
     * produce identical digests; any single-key difference flips it
     * with overwhelming probability. Costs O(log keys + range size),
     * no flash I/O.
     */
    std::uint64_t rangeDigest(std::uint64_t lo,
                              std::uint64_t hi) const;

    /** Append the range's entries (hash order) to @p out. */
    void rangeEntries(std::uint64_t lo, std::uint64_t hi,
                      std::vector<RangeEntry> &out) const;

    /**
     * Repair push: install @p value at @p stamp unless the shard
     * already knows a state of @p key at or past that stamp (then a
     * no-op acking Ok). Idempotent; safe to race with live traffic.
     */
    void repairPut(Key key, flash::PageBuffer value,
                   std::uint64_t stamp, AckDone done);

    /** Repair push of a tombstone; same stamp rules as repairPut. */
    void repairDel(Key key, std::uint64_t stamp, AckDone done);

    /** Repair pushes that actually changed state. */
    std::uint64_t repairsApplied() const { return repairsApplied_.value(); }

    /**
     * Drop tombstones in [lo, hi] (hash bounds, inclusive) with
     * stamp < @p below. Called by the repair sweep on ranges whose
     * replicas are digest-identical, with @p below older than any
     * write still in flight: every replica then prunes the same
     * set, digests stay equal, and the repair index stops growing
     * monotonically under delete churn.
     */
    void pruneTombstones(std::uint64_t lo, std::uint64_t hi,
                         std::uint64_t below);

    /** Live keys + retained tombstones in the repair index (walks
     * the records). */
    std::size_t repairIndexSize() const;

    /**
     * Repair-index state of @p key (stamp, liveness, corruption);
     * false when the shard has never seen it. The router's
     * read-path heal uses the healthy replica's stamp here so its
     * push into the corrupt replica is correctly stamp-guarded.
     */
    [[nodiscard]] bool keyState(Key key, std::uint64_t *stamp,
                                bool *live,
                                bool *corrupt = nullptr) const;

    ///@}

    /** Whether a live version of @p key exists. */
    [[nodiscard]] bool contains(Key key) const;

    /** Number of live keys (walks the records). */
    std::size_t keyCount() const;

    /** Bytes of live values (excludes dead log versions). */
    std::uint64_t liveBytes() const { return liveBytes_; }

    /** @name Statistics
     *
     * Registry-backed (`kv.shard.*`, labeled by instance); the
     * accessors are thin reads kept for existing callers.
     */
    ///@{
    std::uint64_t gets() const { return gets_.value(); }
    std::uint64_t puts() const { return puts_.value(); }
    std::uint64_t deletes() const { return deletes_.value(); }
    std::uint64_t misses() const { return misses_.value(); }
    /** Gets served from the in-flight write-back memtable. */
    std::uint64_t memtableHits() const { return memtableHits_.value(); }
    /** Conditional gets answered "not modified" (no flash read). */
    std::uint64_t validatedGets() const { return validatedGets_.value(); }
    /** Gets that joined an in-flight flash read instead of issuing
     * their own. */
    std::uint64_t coalescedGets() const { return coalescedGets_.value(); }
    /** Puts whose log append failed (rolled back, acked Error). */
    std::uint64_t failedPuts() const { return failedPuts_.value(); }
    /** Puts shed with KvStatus::Pressure because the file system
     * was at its free-block red line (see kv_types.hh). */
    std::uint64_t pressuredPuts() const { return pressuredPuts_.value(); }
    /** Keys whose durable copy read back uncorrectable and are now
     * marked corrupt in the repair index (healed by replica push). */
    std::uint64_t corruptKeys() const { return corruptKeys_.value(); }
    /** Keys currently marked corrupt (drains to 0 as repair heals). */
    std::size_t corruptKeyCount() const;
    /** Bytes appended to the shard log (live + since-dead; failed
     * appends are rolled back out). */
    std::uint64_t logBytes() const { return logBytes_; }
    ///@}

  private:
    /** Per-record log header: key + value length. */
    static constexpr std::uint32_t recordHeaderBytes = 12;

    /**
     * Independent append chains (log files) per shard. One log file
     * means one tail page and so one program in flight at a time --
     * a per-node put ceiling of roughly one NAND program window per
     * group commit. Striping multiplies that ceiling and lets
     * concurrent puts program different buses, or share a coalesced
     * program window when stripes land on one bus. The hot-shard
     * write backlog under quorum acks is exactly what this bounds:
     * stragglers drain at S chains, not one. More stripes also
     * dilute group-commit amortization (fewer puts absorbed per
     * tail-page program, so more chip-busy program windows stalling
     * reads); 5 is the empirical sweet spot of the 20-node serving
     * bench, where both the write p99 and throughput targets clear
     * with margin.
     */
    static constexpr unsigned logStripes = 5;

    /** Where a key stands in the repair index. */
    enum class Presence : std::uint8_t
    {
        /** Not indexed. The record exists only because appends of
         * the key are still in flight (a rolled-back first put, or
         * a tombstone pruned under a pending append). */
        Absent,
        Live,
        /** Deleted; the stamp orders the delete for anti-entropy. */
        Tombstone,
    };

    /** One state of a key: its log range when live, else only the
     * tombstone's stamp. */
    struct Slot
    {
        std::uint64_t valueOffset = 0; //!< byte offset in the log
        /** Shard-global monotonic version; gates memtable
         * retirement and read-cache validation. */
        std::uint64_t version = 0;
        /** Cluster-wide write stamp (anti-entropy ordering). */
        std::uint64_t stamp = 0;
        std::uint32_t valueLen = 0;
        Presence presence = Presence::Absent;
    };

    /** Everything the shard knows about one key. A record lives
     * while its key is live, a retained tombstone, or has an append
     * in flight. */
    struct KeyRecord
    {
        /** The optimistic state: updated at issue time, so reads,
         * digests and repair decisions see in-flight writes. */
        Slot cur;
        /**
         * Rollback target when an append fails: the last durable
         * state. Taken from cur when the first append of an
         * in-flight chain starts, replaced by each newer landing
         * append, and valid only while inflight > 0. A delete turns
         * it into a tombstone so a failed re-put cannot resurrect
         * an older value. It also drives the dead-byte rule (see
         * markDead).
         */
        Slot snap;
        /** Appends of this key still in flight. */
        unsigned inflight = 0;
        /**
         * The key's durable flash copy came back uncorrectable: the
         * stamp still describes WHICH write the shard holds, but
         * the bytes are gone. Folded into rangeDigest (so the sweep
         * detects equal-stamp corruption) and honored by repairPut
         * (an equal-stamp push heals instead of no-oping). Cleared
         * by any write of the key.
         */
        bool corrupt = false;
        /** Memtable entry: the value of cur while its append is in
         * flight (reads are served from here, not from flash). */
        std::optional<flash::PageBuffer> memtable;
    };
    using Records = std::unordered_map<Key, KeyRecord>;

    /** Waiters coalesced onto one in-flight flash read. */
    struct ReadGroup
    {
        std::vector<GetDone> waiters;
    };

    /** @p key's record, created (and hash-indexed) when missing. */
    KeyRecord &recordFor(Key key);

    /** Erase @p it's record once nothing needs it any more: the key
     * is neither indexed nor has an append in flight. */
    void retire(Records::iterator it);

    /** Whether a repair push at @p stamp is redundant: the shard
     * already indexes a healthy state of @p key at or past it. */
    [[nodiscard]] bool covers(Key key, std::uint64_t stamp) const;

    /** Deliver @p st to @p done from a fresh event. */
    void ackLater(AckDone done, KvStatus st);

    /**
     * Account the log record of @p slot (a no-op unless it is Live)
     * as dead and trim any page of @p key's log that became fully
     * dead, releasing its physical flash page to the cleaner.
     *
     * Every record dies exactly once, by this rule over the record's
     * snapshot:
     * - a landing append newer than the snapshot kills the
     *   snapshot's record and becomes the snapshot;
     * - a landing append older than the snapshot (a delete
     *   superseded it in flight) kills its own record;
     * - a failed append kills its own record;
     * - a delete kills the record it removes: the current one when
     *   no append is in flight, else the live snapshot's, at once.
     *
     * Only durable records or failed appends after their program
     * completions die, so a trim never races an in-flight program
     * of an unmapped page.
     */
    void markDead(Key key, const Slot &slot);

    /** Log file of @p key: stripes decorrelate from the routing
     * ring by using different mix64 bits. */
    const std::string &
    fileFor(Key key) const
    {
        return logNames_[(mix64(key) >> 32) % logStripes];
    }

    sim::Simulator &sim_;
    fs::LogFs &fs_;
    std::array<std::string, logStripes> logNames_;
    /** Flipped by the destructor; continuations held by fs_ / the
     * simulator check it before touching the shard or invoking
     * completion callbacks into the (equally dead) owner. */
    std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);

    /** Every key the shard holds state for (see KeyRecord). */
    Records records_;
    /**
     * The same records in mix64(key) order, so rangeDigest /
     * rangeEntries / pruneTombstones answer ring-segment queries in
     * O(log n + range). mix64 is a bijection, so one entry per key;
     * it changes only when a record is created or erased.
     */
    std::map<std::uint64_t, Records::value_type *> byHash_;
    /** In-flight flash reads, keyed by the entry version they
     * serve (shard-global versions are never reused, so a version
     * pins both the key and the byte range). */
    std::unordered_map<std::uint64_t, ReadGroup> reads_;
    std::uint64_t nextVersion_ = 0;
    /** Stamp source for the stampless put/del overloads. */
    std::uint64_t fallbackStamp_ = 0;

    std::uint64_t liveBytes_ = 0;
    std::uint64_t logBytes_ = 0;
    /**
     * Dead bytes per log page (log name -> page index -> bytes),
     * fed by markDead(). A page whose records are all dead is
     * trimmed from the file system -- without this, a shard log's
     * pages are permanently live and the cleaner can never reclaim
     * a block, so sustained overwrites would wedge an aged card.
     * Entries are dropped once their page is trimmed.
     */
    std::unordered_map<std::string,
                       std::unordered_map<std::uint64_t, std::uint32_t>>
        deadBytes_;

    /** Construction serial among shards; the "inst" label of the
     * kv.shard.* metrics below. */
    unsigned inst_;
    // Registry-backed statistics (accessors above are thin reads).
    sim::Counter &gets_;
    sim::Counter &puts_;
    sim::Counter &deletes_;
    sim::Counter &misses_;
    sim::Counter &memtableHits_;
    sim::Counter &validatedGets_;
    sim::Counter &coalescedGets_;
    sim::Counter &failedPuts_;
    sim::Counter &repairsApplied_;
    sim::Counter &pressuredPuts_;
    sim::Counter &corruptKeys_;
};

} // namespace kv
} // namespace bluedbm

#endif // BLUEDBM_KV_KV_SHARD_HH
