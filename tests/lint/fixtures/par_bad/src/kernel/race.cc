// Fixture: every unsafe write shape inside a parallelFor lambda.
// Expected: six unwaived par-safety findings — a compound write to
// a captured member, a prefix increment of a captured member, a
// mutating container call on a captured vector, a plain assignment
// to a slot of it indexed by something other than the chunk, a
// tracked PageTable mutator (PageTable arity, so mut-pte stays
// silent — the race is the point here, not the spelling), and a
// write to a member inside a same-file helper reached from the
// lambda. The chunk-local counter, the out_[ci] slot writes, and the
// serial merge after the parallelFor must NOT be flagged.
#include "sim/parallel.hh"

namespace fixture
{

struct Slot
{
    long count = 0;
};

class Racer
{
  public:
    void run();

  private:
    void bump(long n)
    {
        hits_ += n;
    }

    long total_ = 0;
    long misses_ = 0;
    long hits_ = 0;
    long merged_ = 0;
    std::vector<long> shared_;
    std::vector<Slot> out_;
    PageTable table_;
};

void
Racer::run()
{
    parallelFor(8, [&](std::size_t ci) {
        long local = 0;
        ++local;
        out_[ci].count += 1;
        out_[ci] = Slot{};
        total_ += 1;
        ++misses_;
        shared_.push_back(3);
        shared_[0] = local;
        table_.testAndClearAccessed(ci);
        bump(local);
    });
    for (const Slot &s : out_)
        merged_ += s.count;
}

} // namespace fixture
