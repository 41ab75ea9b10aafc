#include "workload/access_pattern.hh"

#include <cassert>

namespace pagesim
{

PatternStream::PatternStream(std::vector<Segment> segments)
    : segments_(std::move(segments))
{
}

bool
PatternStream::advanceSegment()
{
    ++index_;
    emitted_ = 0;
    rng_.reset();
    zipf_.reset();
    return index_ < segments_.size();
}

bool
PatternStream::next(Op &op)
{
    while (index_ < segments_.size()) {
        const Segment &seg = segments_[index_];

        if (auto *seq = std::get_if<SeqTouch>(&seg)) {
            if (emitted_ >= seq->count) {
                advanceSegment();
                continue;
            }
            const Vpn vpn = seq->base + emitted_;
            ++emitted_;
            op = seq->fd ? Op::makeFdTouch(vpn, seq->write)
                         : Op::makeTouch(vpn, seq->write);
            op.compute = seq->computePerPage;
            return true;
        }

        if (auto *rand = std::get_if<RandTouch>(&seg)) {
            if (emitted_ >= rand->count) {
                advanceSegment();
                continue;
            }
            if (!rng_)
                rng_.emplace(rand->seed);
            std::uint64_t offset;
            if (rand->zipfTheta > 0.0 && rand->span > 1) {
                if (!zipf_) {
                    zipf_ = std::make_unique<ZipfianGenerator>(
                        rand->span, rand->zipfTheta, rand->scrambled);
                }
                offset = zipf_->next(*rng_);
            } else {
                offset = rand->span > 1
                             ? rng_->uniformInt(0, rand->span - 1)
                             : 0;
            }
            ++emitted_;
            op = rand->fd ? Op::makeFdTouch(rand->base + offset,
                                            rand->write)
                          : Op::makeTouch(rand->base + offset,
                                          rand->write);
            op.compute = rand->computePerTouch;
            return true;
        }

        if (auto *idx = std::get_if<IndexedTouch>(&seg)) {
            if (emitted_ >= idx->count) {
                advanceSegment();
                continue;
            }
            const Vpn vpn = idx->base + idx->offsets[emitted_];
            ++emitted_;
            op = Op::makeTouch(vpn, idx->write);
            op.compute = idx->computePerTouch;
            return true;
        }

        if (auto *comp = std::get_if<ComputeSeg>(&seg)) {
            op = Op::makeCompute(comp->ns);
            advanceSegment();
            return true;
        }

        if (auto *bar = std::get_if<BarrierSeg>(&seg)) {
            op = Op::makeBarrier(bar->id);
            advanceSegment();
            return true;
        }

        if (auto *phase = std::get_if<PhaseSeg>(&seg)) {
            op = Op::makePhase(phase->id);
            advanceSegment();
            return true;
        }

        advanceSegment();
    }
    return false;
}

} // namespace pagesim
