/**
 * @file
 * The pluggable DRAM flip/threshold-model interface.
 *
 * A FlipModel owns everything the Dram device delegates about
 * disturbance errors: the seeded weak-cell map, the per-refresh-window
 * activation accounting that turns aggressor activations into
 * per-victim disturbance, and the decision of whether a tripped cell
 * actually surfaces as a flip. Dram drives it through virtual
 * dispatch, so non-DDR3 devices (TRR-mitigated DDR4, half-double-style
 * distance-2 parts, ECC DIMMs) are campaign scenarios instead of
 * forks of the device model.
 *
 * Implementations shipped here:
 *  - Ddr3FlipModel  : the paper's machines; distance-1 disturbance,
 *    byte-identical to the pre-interface Dram under the default
 *    configuration (pinned by tests/test_dram.cpp).
 *  - TrrFlipModel   : a DDR4-style in-DRAM sampler tracks the top-K
 *    most-activated rows per bank (Misra-Gries) and targeted-refreshes
 *    their neighbours, so double-sided pairs stop flipping while
 *    many-sided patterns (more aggressors than tracker entries) still
 *    land.
 *  - Distance2FlipModel : far aggressors contribute attenuated
 *    disturbance two rows away (1/distance2Divisor per activation).
 *  - EccFlipModel   : DDR3 accounting behind a single-error-correcting
 *    code; a flip surfaces only when a second cell of the same
 *    codeword trips.
 */

#ifndef PTH_DRAM_FLIP_MODEL_HH
#define PTH_DRAM_FLIP_MODEL_HH

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "dram/dram_config.hh"
#include "dram/vulnerability_model.hh"

namespace pth
{

/** Canonical CLI/report name of a model kind ("ddr3", "trr", ...). */
const char *flipModelKindName(FlipModelKind kind);

/**
 * Parse a model name (canonical names plus the aliases documented in
 * BenchCli --help). Returns false without touching out on failure.
 */
bool parseFlipModelKind(const char *text, FlipModelKind &out);

/** Abstract flip/threshold model driven by Dram. */
class FlipModel
{
  public:
    /** A victim row whose accumulated disturbance must be re-checked
     * against its weak cells' thresholds. */
    struct Victim
    {
        std::uint64_t row;
        std::uint64_t disturbance;
    };

    /** One cell to inject into physical memory now. */
    struct Injection
    {
        std::uint64_t byteInRow;
        unsigned bitInByte;
        /** Orientation, re-checked at injection time: a deferred cell
         * whose word was rewritten meanwhile had its charge restored
         * and must not flip against its only possible direction. */
        bool trueCell;
    };

    FlipModel(const DisturbanceConfig &config,
              const DramGeometry &geometry);
    virtual ~FlipModel() = default;

    /** The model's kind (folded into campaign spec keys). */
    virtual FlipModelKind kind() const = 0;

    /** Canonical name, for reports and logs. */
    const char *name() const { return flipModelKindName(kind()); }

    /** The shared seeded weak-cell map. */
    const VulnerabilityModel &vulnerability() const { return vuln; }

    /**
     * Record one activation of (bank, row) in refresh window epoch and
     * append the victims whose disturbance changed (already screened
     * to weak rows). The default implements distance-1 accounting: a
     * victim's disturbance is the sum of its two neighbours'
     * activations in the current window.
     */
    virtual void onActivate(unsigned bank, std::uint64_t row,
                            std::uint64_t epoch,
                            std::vector<Victim> &victims);

    /**
     * Victims of an analytic constant-rate hammer: every aggressor row
     * activated actsPerWindow times per refresh window. Stateless —
     * the bulk path models whole steady-state windows, not the live
     * counters. Victims are deduplicated (first-occurrence order).
     */
    virtual void bulkVictims(unsigned bank,
                             const std::vector<std::uint64_t> &aggressors,
                             std::uint64_t actsPerWindow,
                             std::vector<Victim> &victims) const;

    /**
     * A weak cell crossed its threshold while its stored bit matched
     * the flip orientation. Append the cells to actually flip now; the
     * default injects the tripped cell itself. EccFlipModel defers
     * until a codeword holds two tripped cells (single errors are
     * corrected on read).
     */
    virtual void onCellTripped(unsigned bank, std::uint64_t row,
                               const WeakCell &cell,
                               std::vector<Injection> &inject);

    /** Forget all accounting state (device reset between experiments). */
    virtual void reset();

    /**
     * Deep copy — weak-cell map, window accounting, and any
     * model-specific state (TRR trackers, ECC latent cells) — so a
     * snapshot clone trips and injects the same cells at the same
     * accesses (Machine snapshot/fork support).
     */
    virtual std::unique_ptr<FlipModel> clone() const = 0;

    /**
     * Digest of the mutable accounting state — the per-window
     * activation counters plus any model-specific bookkeeping
     * (TrrFlipModel's trackers and refresh baselines, EccFlipModel's
     * latent cells). Folded into Dram::stateHash so equal machine
     * fingerprints also pin future flip behaviour: without it, a
     * half-filled refresh window or a corrected-but-latent ECC error
     * was invisible to snapshot audits.
     */
    virtual std::uint64_t stateHash() const;

  protected:
    /** Bump (bank, row)'s activation counter for the window. */
    void recordActivation(unsigned bank, std::uint64_t row,
                          std::uint64_t epoch);

    /** Activations of (bank, row) within the given window (0 when the
     * row is out of range or its counter belongs to an older window). */
    std::uint64_t actsInWindow(unsigned bank, std::uint64_t row,
                               std::uint64_t epoch) const;

    /** Sum of both neighbours' activations in the window. */
    std::uint64_t neighbourActs(unsigned bank, std::uint64_t row,
                                std::uint64_t epoch) const;

    std::uint64_t rowsPerBank() const { return rows; }

    /** The configured parameters (stored once, inside the cell map). */
    const DisturbanceConfig &cfg() const { return vuln.config(); }

    VulnerabilityModel vuln;

  private:
    /** One row's activation counter for its latest window. */
    struct RowState
    {
        std::uint64_t row = 0;
        std::uint64_t epoch = 0;
        std::uint64_t acts = 0;   //!< 0 marks an empty slot
    };

    /** A bank's activated rows: open addressing with linear probing
     * over a power-of-two slot array, kept at most half full. */
    struct RowTable
    {
        std::vector<RowState> slots;
        std::uint64_t used = 0;
    };

    /** Index of row's slot in a non-empty table: the slot holding it,
     * or the empty slot where it belongs. */
    static std::size_t probe(const std::vector<RowState> &slots,
                             std::uint64_t row);

    /** The row's slot, or null when the row was never activated. */
    const RowState *findRow(unsigned bank, std::uint64_t row) const;

    /** The row's slot, claimed (acts == 0) when the row is new. */
    RowState &claimRow(unsigned bank, std::uint64_t row);

    std::uint64_t rows;
    std::vector<RowTable> bankRows;
};

/** The seeded DDR3 model of the paper's machines (the default). */
class Ddr3FlipModel : public FlipModel
{
  public:
    using FlipModel::FlipModel;
    FlipModelKind kind() const override { return FlipModelKind::Ddr3Seeded; }

    std::unique_ptr<FlipModel> clone() const override
    {
        return std::make_unique<Ddr3FlipModel>(*this);
    }
};

/** DDR4-style target-row-refresh mitigation over DDR3 accounting. */
class TrrFlipModel : public FlipModel
{
  public:
    TrrFlipModel(const DisturbanceConfig &config,
                 const DramGeometry &geometry);

    FlipModelKind kind() const override { return FlipModelKind::Trr; }

    void onActivate(unsigned bank, std::uint64_t row, std::uint64_t epoch,
                    std::vector<Victim> &victims) override;
    void bulkVictims(unsigned bank,
                     const std::vector<std::uint64_t> &aggressors,
                     std::uint64_t actsPerWindow,
                     std::vector<Victim> &victims) const override;
    void reset() override;
    std::uint64_t stateHash() const override;

    std::unique_ptr<FlipModel> clone() const override
    {
        return std::make_unique<TrrFlipModel>(*this);
    }

    /** Effective refresh threshold (resolves the 0 = auto default). */
    std::uint64_t refreshThreshold() const;

  private:
    struct TrackerEntry
    {
        std::uint64_t row;
        std::uint64_t count;
    };

    struct BankTracker
    {
        std::uint64_t epoch = 0;
        std::vector<TrackerEntry> entries;
    };

    /** Disturbance already neutralized by targeted refreshes. */
    struct RefreshBaseline
    {
        std::uint64_t epoch = 0;
        std::uint64_t sum = 0;
    };

    /** Misra-Gries sampler step; true when (bank, row) just earned a
     * targeted refresh of its neighbours. */
    bool sample(unsigned bank, std::uint64_t row, std::uint64_t epoch);

    /** Victim disturbance net of its last targeted refresh. */
    std::uint64_t netDisturbance(unsigned bank, std::uint64_t victim,
                                 std::uint64_t epoch) const;

    std::vector<BankTracker> trackers;
    std::vector<std::unordered_map<std::uint64_t, RefreshBaseline>>
        refreshed;
};

/** Half-double-style model: distance-2 aggressors disturb too. */
class Distance2FlipModel : public FlipModel
{
  public:
    Distance2FlipModel(const DisturbanceConfig &config,
                       const DramGeometry &geometry);

    FlipModelKind kind() const override { return FlipModelKind::Distance2; }

    void onActivate(unsigned bank, std::uint64_t row, std::uint64_t epoch,
                    std::vector<Victim> &victims) override;
    void bulkVictims(unsigned bank,
                     const std::vector<std::uint64_t> &aggressors,
                     std::uint64_t actsPerWindow,
                     std::vector<Victim> &victims) const override;

    std::unique_ptr<FlipModel> clone() const override
    {
        return std::make_unique<Distance2FlipModel>(*this);
    }
};

/** DDR3 accounting behind a single-error-correcting ECC word. */
class EccFlipModel : public FlipModel
{
  public:
    EccFlipModel(const DisturbanceConfig &config,
                 const DramGeometry &geometry);

    FlipModelKind kind() const override { return FlipModelKind::Ecc; }

    void onCellTripped(unsigned bank, std::uint64_t row,
                       const WeakCell &cell,
                       std::vector<Injection> &inject) override;
    void reset() override;
    std::uint64_t stateHash() const override;

    std::unique_ptr<FlipModel> clone() const override
    {
        return std::make_unique<EccFlipModel>(*this);
    }

  private:
    /** Tripped-but-corrected cells of one codeword. */
    struct Codeword
    {
        std::vector<Injection> latent;
        bool uncorrectable = false;
    };

    std::uint64_t wordsPerRow;
    std::vector<std::unordered_map<std::uint64_t, Codeword>> words;
};

/** Factory keyed on config.flipModel. */
std::unique_ptr<FlipModel> makeFlipModel(const DisturbanceConfig &config,
                                         const DramGeometry &geometry);

} // namespace pth

#endif // PTH_DRAM_FLIP_MODEL_HH
