type relation = Le | Ge | Eq

type constr = { coeffs : float array; relation : relation; rhs : float }

type solution = { x : float array; objective : float }

type outcome = Optimal of solution | Unbounded | Infeasible

let constr coeffs relation rhs = { coeffs; relation; rhs }
