type result = {
  n_dist : Util.Dist.t;
  p_dist : Util.Dist.t;
}

let analyze (trace : Trace.Preprocess.t) =
  (* dynamic statistics: every reference to a list contributes its n and
     p, so hot lists weigh in proportion to how often they are touched *)
  let n_dist = Util.Dist.create () and p_dist = Util.Dist.create () in
  for k = 0 to Trace.Preprocess.ref_count trace - 1 do
    let id = Trace.Preprocess.ref_id trace k in
    Util.Dist.add n_dist (float_of_int trace.np.(2 * id));
    Util.Dist.add p_dist (float_of_int trace.np.((2 * id) + 1))
  done;
  { n_dist; p_dist }

let mean_n r = Util.Dist.mean r.n_dist
let mean_p r = Util.Dist.mean r.p_dist
let n_cumulative r = Util.Dist.cumulative r.n_dist
let p_cumulative r = Util.Dist.cumulative r.p_dist
