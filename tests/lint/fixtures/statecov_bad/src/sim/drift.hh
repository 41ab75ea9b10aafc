// Fixture: a field that drifts out of checkpoint coverage. Saving and
// restoring share one state body, so the only drift left is a field
// the body never mentions. Expected: one unwaived state-cov finding
// (added_), one waived state-cov finding (waived_), and one
// lint-unused-waiver for the stale waiver on a field that is in fact
// serialized (stale_). Holder's state() is an accessor, not a state
// body, so its field is not checked.
namespace fixture
{

class SnapDrift
{
  public:
    template <class Self, class Ar>
    static void
    state(Self &self, Ar &ar)
    {
        ar.u64(self.covered_);
        ar.u64(self.stale_);
    }

  private:
    unsigned long covered_ = 0;
    unsigned long added_ = 0;
    // lint:state-cov-ok(scratch cleared at epoch start and rebuilt on first access)
    unsigned long waived_ = 0;
    // lint:state-cov-ok(stale waiver: the field is serialized in the state body)
    unsigned long stale_ = 0;
};

class Holder
{
  public:
    unsigned long state() const { return held_; }

  private:
    unsigned long held_ = 0;
};

} // namespace fixture
