#include "dram/flip_model.hh"

#include <algorithm>
#include <cstring>

#include "common/logging.hh"
#include "common/random.hh"

namespace pth
{

const char *
flipModelKindName(FlipModelKind kind)
{
    switch (kind) {
    case FlipModelKind::Ddr3Seeded: return "ddr3";
    case FlipModelKind::Trr: return "trr";
    case FlipModelKind::Distance2: return "distance2";
    case FlipModelKind::Ecc: return "ecc";
    }
    return "unknown";
}

bool
parseFlipModelKind(const char *text, FlipModelKind &out)
{
    auto is = [text](const char *name) {
        return std::strcmp(text, name) == 0;
    };
    if (is("ddr3") || is("seeded") || is("default")) {
        out = FlipModelKind::Ddr3Seeded;
        return true;
    }
    if (is("trr") || is("ddr4") || is("ddr4-trr")) {
        out = FlipModelKind::Trr;
        return true;
    }
    if (is("distance2") || is("d2") || is("half-double")) {
        out = FlipModelKind::Distance2;
        return true;
    }
    if (is("ecc")) {
        out = FlipModelKind::Ecc;
        return true;
    }
    return false;
}

FlipModel::FlipModel(const DisturbanceConfig &config,
                     const DramGeometry &geometry)
    : vuln(config, geometry.rowBytes), rows(geometry.rows()),
      bankRows(geometry.banks)
{
}

std::size_t
FlipModel::probe(const std::vector<RowState> &slots, std::uint64_t row)
{
    // Fibonacci hashing; linear probing in a power-of-two table.
    const std::size_t mask = slots.size() - 1;
    std::size_t i = (row * 0x9e3779b97f4a7c15ull >> 32) & mask;
    while (slots[i].acts && slots[i].row != row)
        i = (i + 1) & mask;
    return i;
}

const FlipModel::RowState *
FlipModel::findRow(unsigned bank, std::uint64_t row) const
{
    const std::vector<RowState> &slots = bankRows[bank].slots;
    if (slots.empty())
        return nullptr;
    const RowState &rs = slots[probe(slots, row)];
    return rs.acts ? &rs : nullptr;
}

FlipModel::RowState &
FlipModel::claimRow(unsigned bank, std::uint64_t row)
{
    RowTable &table = bankRows[bank];
    if (2 * (table.used + 1) > table.slots.size()) {
        std::vector<RowState> old(
            std::max<std::size_t>(16, 2 * table.slots.size()));
        old.swap(table.slots);
        for (const RowState &rs : old)
            if (rs.acts)
                table.slots[probe(table.slots, rs.row)] = rs;
    }
    RowState &rs = table.slots[probe(table.slots, row)];
    if (!rs.acts) {
        rs.row = row;
        ++table.used;
    }
    return rs;
}

void
FlipModel::recordActivation(unsigned bank, std::uint64_t row,
                            std::uint64_t epoch)
{
    RowState &rs = claimRow(bank, row);
    if (rs.epoch != epoch) {
        // Lazy refresh: the window rolled over, so the charge leaked
        // into the neighbours has been restored.
        rs.epoch = epoch;
        rs.acts = 0;
    }
    ++rs.acts;
}

std::uint64_t
FlipModel::actsInWindow(unsigned bank, std::uint64_t row,
                        std::uint64_t epoch) const
{
    if (row >= rows)
        return 0;
    const RowState *rs = findRow(bank, row);
    if (!rs || rs->epoch != epoch)
        return 0;
    return rs->acts;
}

std::uint64_t
FlipModel::neighbourActs(unsigned bank, std::uint64_t row,
                         std::uint64_t epoch) const
{
    // row - 1 wraps for row 0; actsInWindow's range check returns 0.
    return actsInWindow(bank, row - 1, epoch) +
           (row + 1 < rows ? actsInWindow(bank, row + 1, epoch) : 0);
}

void
FlipModel::onActivate(unsigned bank, std::uint64_t row, std::uint64_t epoch,
                      std::vector<Victim> &victims)
{
    recordActivation(bank, row, epoch);

    // Disturb the two neighbouring rows. A victim's per-window
    // disturbance is the sum of its neighbours' activations.
    for (long long delta : {-1ll, +1ll}) {
        if (row == 0 && delta < 0)
            continue;
        std::uint64_t victim = row + static_cast<std::uint64_t>(delta);
        if (victim >= rows)
            continue;
        if (!vuln.rowIsWeak(bank, victim))
            continue;
        victims.push_back({victim, neighbourActs(bank, victim, epoch)});
    }
}

void
FlipModel::bulkVictims(unsigned /* bank */,
                       const std::vector<std::uint64_t> &aggressors,
                       std::uint64_t actsPerWindow,
                       std::vector<Victim> &victims) const
{
    // Candidate victims: every row adjacent to an aggressor, each
    // listed once (a victim sandwiched between two aggressors must not
    // run the threshold check twice per call).
    std::vector<std::uint64_t> candidates;
    auto push = [&candidates](std::uint64_t row) {
        if (std::find(candidates.begin(), candidates.end(), row) ==
            candidates.end())
            candidates.push_back(row);
    };
    for (std::uint64_t row : aggressors) {
        if (row > 0)
            push(row - 1);
        if (row + 1 < rows)
            push(row + 1);
    }

    for (std::uint64_t victim : candidates) {
        std::uint64_t adjacency = 0;
        for (std::uint64_t row : aggressors)
            if (row + 1 == victim || victim + 1 == row)
                ++adjacency;
        victims.push_back({victim, adjacency * actsPerWindow});
    }
}

void
FlipModel::onCellTripped(unsigned, std::uint64_t, const WeakCell &cell,
                         std::vector<Injection> &inject)
{
    inject.push_back({cell.byteInRow, cell.bitInByte, cell.trueCell});
}

void
FlipModel::reset()
{
    for (RowTable &table : bankRows) {
        table.slots.clear();
        table.used = 0;
    }
}

std::uint64_t
FlipModel::stateHash() const
{
    std::uint64_t h = hashCombine(0xf11b, rows);
    for (std::size_t bank = 0; bank < bankRows.size(); ++bank) {
        // Commutative fold: the slot order depends on the table's
        // growth history, which must not affect the digest.
        std::uint64_t fold = 0;
        for (const RowState &rs : bankRows[bank].slots)
            if (rs.acts)
                fold += mix64(hashCombine(rs.row, rs.epoch, rs.acts));
        h = hashCombine(h, bank, fold);
    }
    return h;
}

// --- TRR -------------------------------------------------------------

TrrFlipModel::TrrFlipModel(const DisturbanceConfig &config,
                           const DramGeometry &geometry)
    : FlipModel(config, geometry), trackers(geometry.banks),
      refreshed(geometry.banks)
{
    pth_assert(cfg().trrTrackerEntries >= 1, "TRR tracker needs entries");
}

std::uint64_t
TrrFlipModel::refreshThreshold() const
{
    if (cfg().trrRefreshThreshold != 0)
        return cfg().trrRefreshThreshold;
    return std::max<std::uint64_t>(1, cfg().thresholdMin / 8);
}

bool
TrrFlipModel::sample(unsigned bank, std::uint64_t row, std::uint64_t epoch)
{
    BankTracker &tracker = trackers[bank];
    if (tracker.epoch != epoch) {
        // The refresh window restored every row; start sampling anew.
        tracker.epoch = epoch;
        tracker.entries.clear();
    }

    for (TrackerEntry &entry : tracker.entries) {
        if (entry.row != row)
            continue;
        if (++entry.count >= refreshThreshold()) {
            entry.count = 0;  // the aggressor was serviced
            return true;
        }
        return false;
    }
    if (tracker.entries.size() < cfg().trrTrackerEntries) {
        tracker.entries.push_back({row, 1});
        return false;
    }

    // Tracker full and the row is not in it: Misra-Gries decrement.
    // Many-sided patterns keep every count near zero, which is
    // exactly the blind spot that defeats real TRR samplers.
    for (std::size_t i = tracker.entries.size(); i-- > 0;) {
        TrackerEntry &entry = tracker.entries[i];
        if (entry.count > 0)
            --entry.count;
        if (entry.count == 0)
            tracker.entries.erase(tracker.entries.begin() +
                                  static_cast<std::ptrdiff_t>(i));
    }
    return false;
}

std::uint64_t
TrrFlipModel::netDisturbance(unsigned bank, std::uint64_t victim,
                             std::uint64_t epoch) const
{
    std::uint64_t sum = neighbourActs(bank, victim, epoch);
    auto it = refreshed[bank].find(victim);
    if (it == refreshed[bank].end() || it->second.epoch != epoch)
        return sum;
    return sum > it->second.sum ? sum - it->second.sum : 0;
}

void
TrrFlipModel::onActivate(unsigned bank, std::uint64_t row,
                         std::uint64_t epoch, std::vector<Victim> &victims)
{
    recordActivation(bank, row, epoch);

    if (sample(bank, row, epoch)) {
        // Targeted refresh: restore the charge of both neighbours by
        // remembering how much disturbance has been neutralized.
        for (long long delta : {-1ll, +1ll}) {
            if (row == 0 && delta < 0)
                continue;
            std::uint64_t victim = row + static_cast<std::uint64_t>(delta);
            if (victim >= rowsPerBank())
                continue;
            refreshed[bank][victim] = {epoch,
                                       neighbourActs(bank, victim, epoch)};
        }
    }

    for (long long delta : {-1ll, +1ll}) {
        if (row == 0 && delta < 0)
            continue;
        std::uint64_t victim = row + static_cast<std::uint64_t>(delta);
        if (victim >= rowsPerBank())
            continue;
        if (!vuln.rowIsWeak(bank, victim))
            continue;
        victims.push_back({victim, netDisturbance(bank, victim, epoch)});
    }
}

void
TrrFlipModel::bulkVictims(unsigned bank,
                          const std::vector<std::uint64_t> &aggressors,
                          std::uint64_t actsPerWindow,
                          std::vector<Victim> &victims) const
{
    const std::size_t first = victims.size();
    FlipModel::bulkVictims(bank, aggressors, actsPerWindow, victims);

    std::vector<std::uint64_t> distinct;
    for (std::uint64_t row : aggressors)
        if (std::find(distinct.begin(), distinct.end(), row) ==
            distinct.end())
            distinct.push_back(row);

    // With at most trackerEntries distinct aggressors the sampler sees
    // them all (Misra-Gries finds every row whose share exceeds
    // 1/(K+1)), so each aggressor is serviced every refreshThreshold()
    // activations: between two targeted refreshes a victim accumulates
    // at most adjacency * threshold. More aggressors than entries keep
    // every count near zero — no refresh fires and the full
    // disturbance lands, which is why many-sided patterns are needed.
    if (distinct.size() > cfg().trrTrackerEntries)
        return;
    std::uint64_t cap = refreshThreshold();
    for (std::size_t i = first; i < victims.size(); ++i) {
        Victim &victim = victims[i];
        std::uint64_t adjacency =
            actsPerWindow ? victim.disturbance / actsPerWindow : 0;
        victim.disturbance =
            std::min(victim.disturbance, adjacency * cap);
    }
}

std::uint64_t
TrrFlipModel::stateHash() const
{
    std::uint64_t h = hashCombine(FlipModel::stateHash(), 0x77f);
    for (const BankTracker &tracker : trackers) {
        h = hashCombine(h, tracker.epoch, tracker.entries.size());
        for (const TrackerEntry &entry : tracker.entries)
            h = hashCombine(h, entry.row, entry.count);
    }
    for (const auto &bank : refreshed) {
        // determinism: commutative fold — iteration order of the
        // unordered map cannot affect the sum.
        std::uint64_t fold = 0;
        for (const auto &[row, baseline] : bank)
            fold += mix64(hashCombine(row, baseline.epoch, baseline.sum));
        h = hashCombine(h, fold);
    }
    return h;
}

void
TrrFlipModel::reset()
{
    FlipModel::reset();
    for (BankTracker &tracker : trackers) {
        tracker.epoch = 0;
        tracker.entries.clear();
    }
    for (auto &bank : refreshed)
        bank.clear();
}

// --- Distance-2 ------------------------------------------------------

Distance2FlipModel::Distance2FlipModel(const DisturbanceConfig &config,
                                       const DramGeometry &geometry)
    : FlipModel(config, geometry)
{
    pth_assert(cfg().distance2Divisor >= 1, "bad distance-2 divisor");
}

void
Distance2FlipModel::onActivate(unsigned bank, std::uint64_t row,
                               std::uint64_t epoch,
                               std::vector<Victim> &victims)
{
    recordActivation(bank, row, epoch);

    for (long long delta : {-2ll, -1ll, +1ll, +2ll}) {
        if (delta < 0 && row < static_cast<std::uint64_t>(-delta))
            continue;
        std::uint64_t victim = row + static_cast<std::uint64_t>(delta);
        if (victim >= rowsPerBank())
            continue;
        if (!vuln.rowIsWeak(bank, victim))
            continue;
        std::uint64_t far =
            actsInWindow(bank, victim - 2, epoch) +
            (victim + 2 < rowsPerBank()
                 ? actsInWindow(bank, victim + 2, epoch)
                 : 0);
        victims.push_back({victim, neighbourActs(bank, victim, epoch) +
                                       far / cfg().distance2Divisor});
    }
}

void
Distance2FlipModel::bulkVictims(unsigned /* bank */,
                                const std::vector<std::uint64_t> &aggressors,
                                std::uint64_t actsPerWindow,
                                std::vector<Victim> &victims) const
{
    std::vector<std::uint64_t> candidates;
    auto push = [&candidates, this](std::uint64_t row) {
        if (row < rowsPerBank() &&
            std::find(candidates.begin(), candidates.end(), row) ==
                candidates.end())
            candidates.push_back(row);
    };
    for (std::uint64_t row : aggressors) {
        if (row >= 2)
            push(row - 2);
        if (row >= 1)
            push(row - 1);
        push(row + 1);
        push(row + 2);
    }

    for (std::uint64_t victim : candidates) {
        std::uint64_t near = 0;
        std::uint64_t far = 0;
        for (std::uint64_t row : aggressors) {
            if (row + 1 == victim || victim + 1 == row)
                ++near;
            else if (row + 2 == victim || victim + 2 == row)
                ++far;
        }
        victims.push_back({victim,
                           near * actsPerWindow +
                               far * actsPerWindow / cfg().distance2Divisor});
    }
}

// --- ECC -------------------------------------------------------------

EccFlipModel::EccFlipModel(const DisturbanceConfig &config,
                           const DramGeometry &geometry)
    : FlipModel(config, geometry), words(geometry.banks)
{
    pth_assert(cfg().eccCodewordBytes >= 1 &&
                   cfg().eccCodewordBytes <= geometry.rowBytes,
               "bad ECC codeword size");
    // Ceil: a partial tail word must not alias the next row's words.
    wordsPerRow = (geometry.rowBytes + cfg().eccCodewordBytes - 1) /
                  cfg().eccCodewordBytes;
}

void
EccFlipModel::onCellTripped(unsigned bank, std::uint64_t row,
                            const WeakCell &cell,
                            std::vector<Injection> &inject)
{
    std::uint64_t key =
        row * wordsPerRow + cell.byteInRow / cfg().eccCodewordBytes;
    Codeword &word = words[bank][key];
    if (word.uncorrectable) {
        // The word already carries two errors; correction is gone and
        // every further tripped cell lands directly.
        inject.push_back({cell.byteInRow, cell.bitInByte, cell.trueCell});
        return;
    }
    for (const Injection &latent : word.latent)
        if (latent.byteInRow == cell.byteInRow &&
            latent.bitInByte == cell.bitInByte)
            return;  // still latent from an earlier window
    word.latent.push_back({cell.byteInRow, cell.bitInByte, cell.trueCell});
    if (word.latent.size() < 2)
        return;  // a single flipped cell per word is corrected on read
    inject.insert(inject.end(), word.latent.begin(), word.latent.end());
    word.latent.clear();
    word.uncorrectable = true;
}

std::uint64_t
EccFlipModel::stateHash() const
{
    std::uint64_t h = hashCombine(FlipModel::stateHash(), 0xecc);
    for (const auto &bank : words) {
        // determinism: commutative fold — iteration order of the
        // unordered map cannot affect the sum.
        std::uint64_t fold = 0;
        for (const auto &[key, word] : bank) {
            std::uint64_t w = hashCombine(key, word.uncorrectable);
            for (const Injection &cell : word.latent)
                w = hashCombine(w, cell.byteInRow, cell.bitInByte,
                                cell.trueCell);
            fold += mix64(w);
        }
        h = hashCombine(h, fold);
    }
    return h;
}

void
EccFlipModel::reset()
{
    FlipModel::reset();
    for (auto &bank : words)
        bank.clear();
}

std::unique_ptr<FlipModel>
makeFlipModel(const DisturbanceConfig &config, const DramGeometry &geometry)
{
    switch (config.flipModel) {
    case FlipModelKind::Ddr3Seeded:
        return std::make_unique<Ddr3FlipModel>(config, geometry);
    case FlipModelKind::Trr:
        return std::make_unique<TrrFlipModel>(config, geometry);
    case FlipModelKind::Distance2:
        return std::make_unique<Distance2FlipModel>(config, geometry);
    case FlipModelKind::Ecc:
        return std::make_unique<EccFlipModel>(config, geometry);
    }
    return std::make_unique<Ddr3FlipModel>(config, geometry);
}

} // namespace pth
