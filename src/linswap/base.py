"""Estimator plumbing: scikit-learn-compatible get_params / set_params so the
trainers compose with ecosystem tooling (clone, grid search) without importing
it. The trainers are dataclasses: their fields are the parameters, and the
dataclass repr prints them as a constructor call.
"""

from __future__ import annotations

from dataclasses import fields, replace


class ParamsMixin:
    def get_params(self, deep: bool = True) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def set_params(self, **params):
        valid = {f.name for f in fields(self)}
        for key in params:
            if key not in valid:
                raise ValueError(f"invalid parameter {key!r} for {type(self).__name__}; valid: {sorted(valid)}")
        replace(self, **params)  # the class's own checks, before any field changes
        vars(self).update(params)
        return self
