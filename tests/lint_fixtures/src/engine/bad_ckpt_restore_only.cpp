// Fixture: checkpoint/restore symmetry, restore-side direction and pairing.
// The first campaign is symmetric. The second campaign's restore_state reads
// "epoch", which its checkpoint_state never writes, so a resumed campaign
// would read a default instead of saved state. Pairs are matched in
// definition order, so the one finding must land on the second pair. Must
// trip checkpoint-restore-symmetry and nothing else.
namespace wild5g::fixture_ckpt_restore {

struct CkrValue {
  static CkrValue object();
  void set(const char* key, long long v);
};

const CkrValue& state_field(const CkrValue& state, const char* key,
                            const char* what);

class CkrFirstCampaign {
 public:
  CkrValue checkpoint_state() const {
    CkrValue state = CkrValue::object();
    state.set("rows", rows_);
    return state;
  }

  void restore_state(const CkrValue& state) {
    (void)state_field(state, "rows", "ckr_first_fixture");
  }

 private:
  long long rows_ = 0;
};

class CkrSecondCampaign {
 public:
  CkrValue checkpoint_state() const {
    CkrValue state = CkrValue::object();
    state.set("rows", rows_);
    return state;
  }

  void restore_state(const CkrValue& state) {
    (void)state_field(state, "rows", "ckr_second_fixture");
    (void)state_field(state, "epoch", "ckr_second_fixture");  // BAD
  }

 private:
  long long rows_ = 0;
};

}  // namespace wild5g::fixture_ckpt_restore
